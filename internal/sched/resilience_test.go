// Serve-path resilience tests: the chaos gate (mixed injected faults,
// mid-run deaths, probed recoveries), deadline behavior with the
// goroutine-leak guard, transient retry with backoff, the degradation
// ladder, and the health state machine's transitions.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/core"
	"oclgemm/internal/faultinject"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// TestChaosGateTwentySeeds is the acceptance gate: with ≥30% injected
// mixed faults (transient + timeout) plus a scripted mid-run death and
// later recovery window on one member, RunCtx must — for each of 20
// seeds — either produce C bit-identical to the single-device reference
// or return a typed error before the deadline. With the BLAS fallback
// rung enabled and float64 elements, every non-deadline outcome is
// bit-identical: zero hangs, zero silent wrong results.
func TestChaosGateTwentySeeds(t *testing.T) {
	const m, n, k = 96, 96, 48
	const alpha, beta = 1.25, -0.5
	a := randMat[float64](m, k, 101)
	b := randMat[float64](k, n, 102)
	c0 := randMat[float64](m, n, 103)
	want := c0.Clone()
	singleDeviceRef(t, blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)

	recoveries := 0
	for seed := int64(1); seed <= 20; seed++ {
		si, err := faultinject.NewServe(faultinject.ServeConfig{
			Seed:          seed,
			TransientRate: 0.20,
			TimeoutRate:   0.12, // 32% total injected fault rate
			DeadAt:        map[string]int{"cayman": 5},
			ReviveAt:      map[string]int{"cayman": 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		p := testPool(t, Options{
			TileM: 32, TileN: 32,
			Fallback:   true,
			LaunchHook: si.Hook,
		})
		for run := 0; run < 4; run++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			c := c0.Clone()
			err := RunCtx(ctx, p, blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
			cancel()
			switch {
			case err == nil:
				requireBitIdentical(t, c, want, fmt.Sprintf("seed %d run %d", seed, run))
			case errors.Is(err, ErrDeadlineExceeded) || errors.Is(err, ErrNoDevices) ||
				errors.Is(err, core.ErrTransient) || errors.Is(err, core.ErrTimeout):
				// Typed failure: acceptable, but must not have corrupted C
				// relative to a clean snapshot boundary — a failed ladder
				// leaves either the restored original or committed correct
				// tiles, never garbage from a half-written straggler. The
				// fallback rung makes this branch unreachable in practice.
			default:
				t.Fatalf("seed %d run %d: untyped error: %v", seed, run, err)
			}
		}
		for _, h := range p.Health() {
			recoveries += h.Recoveries
		}
		if counts := si.Counts(); counts[faultinject.Transient]+counts[faultinject.Hang]+counts[faultinject.Death] == 0 {
			t.Errorf("seed %d: injector reports no faults injected", seed)
		}
	}
	// The scripted death + revival window must produce probed
	// re-admissions somewhere across the seeds.
	if recoveries == 0 {
		t.Errorf("no member recovered across 20 chaos seeds; probe re-admission never exercised")
	}
}

// TestChaosKillReviveRerun kills a member mid-run, verifies the run
// survives bit-identically, then revives the member and verifies it is
// probed back in, serves tiles again, and the pool's Alive count is
// restored.
func TestChaosKillReviveRerun(t *testing.T) {
	const victim = "cayman"
	var launches int64
	var once sync.Once
	died := make(chan struct{})
	// Scheduling-independent mid-run death (same pattern as
	// TestPoolSurvivesDeviceDeathMidRun): every other member's first
	// launch blocks until the victim has died, so the victim is
	// guaranteed to execute — and die — while tiles are still in
	// flight, whatever the goroutine interleaving.
	p := testPool(t, Options{
		TileM: 32, TileN: 32, Workers: 1,
		LaunchHook: func(deviceID, kernelName string) error {
			if deviceID != victim {
				<-died
				return nil
			}
			if atomic.AddInt64(&launches, 1) == 4 {
				once.Do(func() { close(died) })
				return fmt.Errorf("%w: %s", ErrDeviceDead, victim)
			}
			return nil
		},
	})
	const m, n, k = 160, 160, 48
	a := randMat[float64](m, k, 61)
	b := randMat[float64](k, n, 62)
	c0 := randMat[float64](m, n, 63)
	want := c0.Clone()
	singleDeviceRef(t, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, want)

	c := c0.Clone()
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, c); err != nil {
		t.Fatalf("run with mid-run kill: %v", err)
	}
	requireBitIdentical(t, c, want, "with mid-run kill")
	if p.Alive() != 3 {
		t.Fatalf("alive = %d, want 3 after %s died mid-run", p.Alive(), victim)
	}

	// An ErrDeviceDead launch quarantines like a kill; pin it down so
	// the auto-probe cannot race the explicit Revive below.
	if !p.Kill(victim) {
		t.Fatalf("Kill(%s) matched no member", victim)
	}
	if !p.Revive(victim) {
		t.Fatalf("Revive(%s) failed: probe did not verify", victim)
	}
	if p.Alive() != 4 {
		t.Fatalf("alive = %d, want 4 after revive", p.Alive())
	}
	for _, h := range p.Health() {
		if h.Device == victim {
			if h.State != Probation {
				t.Errorf("%s state = %v after revive, want probation", victim, h.State)
			}
			if h.Recoveries != 1 {
				t.Errorf("%s recoveries = %d, want 1", victim, h.Recoveries)
			}
		}
	}

	c = c0.Clone()
	if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, c); err != nil {
		t.Fatalf("re-run after revive: %v", err)
	}
	requireBitIdentical(t, c, want, "re-run after revive")
	for _, st := range p.Stats() {
		if st.Device == victim && st.Dead {
			t.Errorf("%s still marked dead after revive + clean run", victim)
		}
	}
}

// jobKind is one pool job kind the table-driven resilience tests run:
// a single GEMM, or a strided batch of 16 items with beta != 0. Both
// keep C in one column-major matrix: a strided batch's C slab is the
// m × 16·n matrix of its items side by side.
type jobKind struct {
	name string
	span string                  // the per-unit span name
	c0   *matrix.Matrix[float64] // initial C
	// units is how many work units the call deals over p's members.
	units func(p *Pool) int
	run   func(ctx context.Context, p *Pool, c *matrix.Matrix[float64]) error
	// each applies f to every GEMM of the call, over C storage c.
	each func(c *matrix.Matrix[float64], f func(alpha float64, a, b *matrix.Matrix[float64], beta float64, c *matrix.Matrix[float64]))
}

// jobKinds returns the single GEMM C ← alpha·A·B + beta·C of m×n×k and
// a strided batch of 16 (m/2)×(n/2)×k items with alpha 1.25 and beta
// -0.5, over operands seeded from seed.
func jobKinds(m, n, k int, alpha, beta float64, seed int64) []jobKind {
	const count = 16
	bm, bn := m/2, n/2
	a, b := randMat[float64](m, k, seed), randMat[float64](k, n, seed+1)
	ba, bb := randMat[float64](bm, count*k, seed+2), randMat[float64](k, count*bn, seed+3)
	return []jobKind{{
		name: "gemm",
		span: "sched.tile",
		c0:   randMat[float64](m, n, seed+4),
		units: func(p *Pool) int {
			tm, tn := p.tileDims(m, n, len(p.members))
			return len(tilesFor(m, n, tm, tn))
		},
		run: func(ctx context.Context, p *Pool, c *matrix.Matrix[float64]) error {
			return RunCtx(ctx, p, blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
		},
		each: func(c *matrix.Matrix[float64], f func(float64, *matrix.Matrix[float64], *matrix.Matrix[float64], float64, *matrix.Matrix[float64])) {
			f(alpha, a, b, beta, c)
		},
	}, {
		name:  "strided",
		span:  "sched.batch.item",
		c0:    randMat[float64](bm, count*bn, seed+5),
		units: func(*Pool) int { return count },
		run: func(ctx context.Context, p *Pool, c *matrix.Matrix[float64]) error {
			return RunStridedBatchedCtx(ctx, p, &batch.Strided[float64]{
				Alpha: 1.25, Beta: -0.5, M: bm, N: bn, K: k, Order: matrix.ColMajor,
				A: ba.Data, StrideA: bm * k,
				B: bb.Data, StrideB: k * bn,
				C: c.Data, StrideC: bm * bn,
				Count: count,
			})
		},
		each: func(c *matrix.Matrix[float64], f func(float64, *matrix.Matrix[float64], *matrix.Matrix[float64], float64, *matrix.Matrix[float64])) {
			for i := 0; i < count; i++ {
				f(1.25, ba.View(0, i*k, bm, k), bb.View(0, i*bn, k, bn), -0.5, c.View(0, i*bn, bm, bn))
			}
		},
	}}
}

// want returns the call's result from the single-device oracle, or
// from the pure-Go BLAS when useBLAS is set.
func (jk jobKind) want(t testing.TB, useBLAS bool) *matrix.Matrix[float64] {
	t.Helper()
	w := jk.c0.Clone()
	jk.each(w, func(alpha float64, a, b *matrix.Matrix[float64], beta float64, c *matrix.Matrix[float64]) {
		if useBLAS {
			blas.GEMM(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
		} else {
			singleDeviceRef(t, blas.NoTrans, blas.NoTrans, alpha, a, b, beta, c)
		}
	})
	return w
}

// TestResilienceDeadlineReturnsWithinBudget starves a run with slow
// launches and a short deadline: RunCtx must return the typed deadline
// error promptly, leak no worker goroutines, and never let a straggling
// unit write C after the call returned.
func TestResilienceDeadlineReturnsWithinBudget(t *testing.T) {
	for _, jk := range jobKinds(192, 192, 48, 1.0, 0.0, 71) {
		t.Run(jk.name, func(t *testing.T) {
			p := testPool(t, Options{
				TileM: 32, TileN: 32,
				LaunchHook: func(deviceID, kernelName string) error {
					time.Sleep(20 * time.Millisecond)
					return nil
				},
			})
			c := jk.c0.Clone()

			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := jk.run(ctx, p, c)
			elapsed := time.Since(start)

			if err == nil {
				t.Fatal("call finished under the deadline; slow-launch hook ineffective")
			}
			if !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want ErrDeadlineExceeded in chain", err)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
			}
			if elapsed > 3*time.Second {
				t.Fatalf("call took %v to honor a 150ms deadline", elapsed)
			}

			// No straggler may touch C after the call returned: staged
			// commits are discarded once the run is abandoned.
			snap := c.Clone()
			time.Sleep(300 * time.Millisecond)
			requireBitIdentical(t, c, snap, "C mutated after deadline return")

			// Goroutine-leak guard: the detached workers must wind down
			// once their in-flight launches finish.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if g := runtime.NumGoroutine(); g <= baseline+2 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("goroutines = %d, baseline %d: workers leaked after deadline return",
						runtime.NumGoroutine(), baseline)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestResilienceTransientBackoff: a transient launch fault is retried
// in place on the same member — with a recorded backoff — instead of
// requeueing, and a recovered member ends the run healthy.
func TestResilienceTransientBackoff(t *testing.T) {
	for _, jk := range jobKinds(96, 96, 32, 1.0, 0.0, 81) {
		t.Run(jk.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var fails int64
			p := testPool(t, Options{
				Devices: fourDevices(t)[:1],
				TileM:   96, TileN: 96, // one tile: the failures hit one attempt chain
				Obs: reg,
				LaunchHook: func(deviceID, kernelName string) error {
					if atomic.AddInt64(&fails, 1) <= 2 {
						return fmt.Errorf("%w: injected flake", core.ErrTransient)
					}
					return nil
				},
			})
			c := jk.c0.Clone()
			if err := jk.run(context.Background(), p, c); err != nil {
				t.Fatalf("run with transient flakes: %v", err)
			}
			requireBitIdentical(t, c, jk.want(t, false), "after transient retries")

			s := reg.Snapshot()
			if got := s.Counters["sched.retry.backoffs"]; got != 2 {
				t.Errorf("sched.retry.backoffs = %d, want 2", got)
			}
			h := p.Health()[0]
			if h.State != Healthy {
				t.Errorf("member state = %v after recovered flakes, want healthy", h.State)
			}
			if st := p.Stats()[0]; st.Retries != 2 || st.Dead {
				t.Errorf("stats = %+v, want 2 retries and not dead", st)
			}
		})
	}
}

// TestResilienceDegradeSingleDevice: when the pool run exhausts a
// unit's attempts, the ladder retries the whole call on the healthiest
// member and succeeds bit-identically.
func TestResilienceDegradeSingleDevice(t *testing.T) {
	for _, jk := range jobKinds(96, 96, 32, 1.25, -0.5, 91) {
		t.Run(jk.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			var launches int64
			p := testPool(t, Options{
				Devices: fourDevices(t)[:1],
				TileM:   32, TileN: 32,
				MaxAttempts: 1,
				Obs:         reg,
				LaunchHook: func(deviceID, kernelName string) error {
					if atomic.AddInt64(&launches, 1) == 1 {
						return fmt.Errorf("%w: first launch refused", core.ErrTimeout)
					}
					return nil
				},
			})
			c := jk.c0.Clone()
			if err := jk.run(context.Background(), p, c); err != nil {
				t.Fatalf("run with degraded ladder: %v", err)
			}
			requireBitIdentical(t, c, jk.want(t, false), "single-device rung")
			if got := reg.Snapshot().Counters["sched.degraded.single"]; got != 1 {
				t.Errorf("sched.degraded.single = %d, want 1", got)
			}
		})
	}
}

// TestResilienceDegradeBlasFallback: with every launch refused, the
// opt-in BLAS rung still returns the correct result (bit-exact for
// float64); without the opt-in, the call returns the typed failure.
func TestResilienceDegradeBlasFallback(t *testing.T) {
	refuse := func(deviceID, kernelName string) error {
		return fmt.Errorf("%w: launches disabled", core.ErrTimeout)
	}
	for _, jk := range jobKinds(96, 96, 32, 1.25, -0.5, 94) {
		t.Run(jk.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			p := testPool(t, Options{
				Devices: fourDevices(t)[:1], TileM: 32, TileN: 32,
				MaxAttempts: 1, Fallback: true, Obs: reg,
				LaunchHook: refuse,
			})
			c := jk.c0.Clone()
			if err := jk.run(context.Background(), p, c); err != nil {
				t.Fatalf("run with BLAS fallback: %v", err)
			}
			requireBitIdentical(t, c, jk.want(t, true), "BLAS rung")
			if got := reg.Snapshot().Counters["sched.degraded.blas"]; got != 1 {
				t.Errorf("sched.degraded.blas = %d, want 1", got)
			}

			p2 := testPool(t, Options{
				Devices: fourDevices(t)[:1], TileM: 32, TileN: 32,
				MaxAttempts: 1,
				LaunchHook:  refuse,
			})
			c = jk.c0.Clone()
			err := jk.run(context.Background(), p2, c)
			if err == nil {
				t.Fatal("run without fallback succeeded with every launch refused")
			}
			if !errors.Is(err, core.ErrTimeout) {
				t.Errorf("err = %v, want core.ErrTimeout in chain", err)
			}
			requireBitIdentical(t, c, jk.c0, "C must be restored when the ladder fails")
		})
	}
}

// TestResilienceRestoreSparesParent: a degraded call restores only its
// own C regions before the next rung. Restoring a view's whole backing
// slice would rewrite parent elements outside C with stale values,
// losing a concurrent caller's writes. Here the failing launch writes a
// sentinel just outside C — into the parent of a single GEMM's C view,
// or into the gap between two strided-batch items — and the pool rung
// fails, so rung 2 runs after a restore; the sentinel must survive.
func TestResilienceRestoreSparesParent(t *testing.T) {
	const m, n, k = 48, 48, 32
	const sentinel = 12345.0
	a := randMat[float64](m, k, 41)
	b := randMat[float64](k, n, 42)
	parent := randMat[float64](m+4, n+4, 43)
	gapped := randMat[float64](1, 2*m*n+5, 44) // two items, StrideC = m·n+5
	cases := []struct {
		name    string
		storage []float64
		regions func(s []float64) []*matrix.Matrix[float64] // the call's C regions over storage s
		outside int                                         // an index of storage outside every region
		run     func(p *Pool) error
	}{{
		name:    "gemm",
		storage: parent.Data,
		regions: func(s []float64) []*matrix.Matrix[float64] {
			return []*matrix.Matrix[float64]{matrix.FromSlice(m+4, n+4, matrix.ColMajor, s).View(2, 2, m, n)}
		},
		outside: parent.Index(0, 3), // above the view, inside its backing slice
		run: func(p *Pool) error {
			return RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.25, a, b, -0.5, parent.View(2, 2, m, n))
		},
	}, {
		name:    "strided",
		storage: gapped.Data,
		regions: func(s []float64) []*matrix.Matrix[float64] {
			return []*matrix.Matrix[float64]{
				matrix.FromSlice(m, n, matrix.ColMajor, s[:m*n]),
				matrix.FromSlice(m, n, matrix.ColMajor, s[m*n+5:]),
			}
		},
		outside: m*n + 2,
		run: func(p *Pool) error {
			return RunStridedBatchedCtx(context.Background(), p, &batch.Strided[float64]{
				Alpha: 1.25, Beta: -0.5, M: m, N: n, K: k, Order: matrix.ColMajor,
				A: a.Data, B: b.Data, // broadcast operands
				C: gapped.Data, StrideC: m*n + 5,
				Count: 2,
			})
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := append([]float64(nil), tc.storage...)
			want[tc.outside] = sentinel
			for _, r := range tc.regions(want) {
				singleDeviceRef(t, blas.NoTrans, blas.NoTrans, 1.25, a, b, -0.5, r)
			}
			var launches int64
			p := testPool(t, Options{
				Devices: fourDevices(t)[:1], TileM: 32, TileN: 32,
				MaxAttempts: 1,
				LaunchHook: func(deviceID, kernelName string) error {
					if atomic.AddInt64(&launches, 1) == 1 {
						tc.storage[tc.outside] = sentinel // another caller's write
						return fmt.Errorf("%w: first launch refused", core.ErrTimeout)
					}
					return nil
				},
			})
			if err := tc.run(p); err != nil {
				t.Fatalf("degraded call: %v", err)
			}
			for i, v := range tc.storage {
				if v != want[i] {
					t.Fatalf("storage[%d] = %v, want %v (sentinel at %d)", i, v, want[i], tc.outside)
				}
			}
		})
	}
}

// TestResilienceNoDevicesNamesDead: the all-dead error names the dead
// members' device IDs in its chain.
func TestResilienceNoDevicesNamesDead(t *testing.T) {
	for _, jk := range jobKinds(32, 32, 32, 1.0, 0.0, 1) {
		t.Run(jk.name, func(t *testing.T) {
			p := testPool(t, Options{})
			for _, d := range p.Devices() {
				p.Kill(d.ID)
			}
			err := jk.run(context.Background(), p, jk.c0.Clone())
			if !errors.Is(err, ErrNoDevices) {
				t.Fatalf("err = %v, want ErrNoDevices", err)
			}
			for _, d := range p.Devices() {
				if !strings.Contains(err.Error(), d.ID) {
					t.Errorf("error %q does not name dead member %s", err, d.ID)
				}
			}
		})
	}
}

// TestResilienceAutoProbeRecovery: a member quarantined by consecutive
// failures (not killed) is probed back in on a later Run once its
// cooldown elapses and the fault clears, then graduates from probation
// to healthy after enough clean tiles.
func TestResilienceAutoProbeRecovery(t *testing.T) {
	const victim = "tahiti"
	var failing atomic.Bool
	failing.Store(true)
	p := testPool(t, Options{
		TileM: 32, TileN: 32,
		LaunchHook: func(deviceID, kernelName string) error {
			if deviceID == victim && failing.Load() {
				return errors.New("injected: persistent hard fault")
			}
			return nil
		},
	})
	const m, n, k = 160, 160, 48
	a := randMat[float64](m, k, 31)
	b := randMat[float64](k, n, 32)
	run := func(label string) {
		t.Helper()
		c := randMat[float64](m, n, 33)
		if err := RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}

	run("run 1 (faulting)")
	if p.Alive() != 3 {
		t.Fatalf("alive = %d, want 3 after %s drained", p.Alive(), victim)
	}
	healthOf := func(id string) MemberHealth {
		for _, h := range p.Health() {
			if h.Device == id {
				return h
			}
		}
		t.Fatalf("no health snapshot for %s", id)
		return MemberHealth{}
	}
	if h := healthOf(victim); h.State != Quarantined || h.Killed {
		t.Fatalf("%s health = %+v, want quarantined and not killed", victim, h)
	}

	// Fault cleared: the next Run's admission probe re-admits it.
	failing.Store(false)
	run("run 2 (recovered)")
	if p.Alive() != 4 {
		t.Fatalf("alive = %d, want 4 after auto-probe", p.Alive())
	}
	h := healthOf(victim)
	if h.Recoveries != 1 || h.Probes < 1 {
		t.Errorf("%s health = %+v, want 1 recovery from >= 1 probe", victim, h)
	}
	if h.State != Healthy && h.State != Probation {
		t.Errorf("%s state = %v, want healthy or probation", victim, h.State)
	}
	run("run 3 (graduation)")
	if got := healthOf(victim).State; got != Healthy {
		t.Errorf("%s state = %v after two clean runs, want healthy", victim, got)
	}
}
