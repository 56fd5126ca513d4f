package sched

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// brokenDevice is a catalog device whose modeled clock is degenerate,
// so every perfmodel estimate on it is NaN — the corruption the
// estimator guards must absorb.
func brokenDevice(t testing.TB, id string) *device.Spec {
	t.Helper()
	d, err := device.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	bad := *d
	bad.ClockGHz = math.NaN()
	return &bad
}

// tileSeconds must translate degenerate model output (NaN routine
// time from a broken device model) into +Inf, not propagate the NaN:
// NaN compares false against everything, so it would silently win or
// lose every greedy-assignment comparison at random.
func TestTileSecondsDegenerateModelIsInf(t *testing.T) {
	devs := []*device.Spec{brokenDevice(t, "tahiti")}
	p := testPool(t, Options{Devices: devs})
	got := tileSeconds(p.members[0], matrix.Single, 64, 64, 64)
	if !math.IsInf(got, 1) {
		t.Fatalf("tileSeconds on NaN-clock device = %v, want +Inf", got)
	}
}

// When no member can be priced, assign must still deal tiles to every
// member. The old fallback indexed by a queue length that stopped
// changing after the first tile, starving all members but one.
func TestAssignRoundRobinFallbackRotates(t *testing.T) {
	devs := []*device.Spec{brokenDevice(t, "tahiti"), brokenDevice(t, "cayman")}
	p := testPool(t, Options{Devices: devs})
	tiles := tilesFor(128, 128, 32, 32) // 16 tiles
	queues := assign(tiles, p.members, matrix.Single, 64)
	if len(queues) != 2 {
		t.Fatalf("got %d queues, want 2", len(queues))
	}
	for i, q := range queues {
		if len(q) != len(tiles)/2 {
			t.Errorf("queue %d got %d of %d tiles, want an even split", i, len(q), len(tiles))
		}
	}
}

// Estimate must refuse a problem the model cannot price on any member
// instead of returning an infinite makespan and zero throughput.
func TestEstimateUnpriceable(t *testing.T) {
	devs := []*device.Spec{brokenDevice(t, "tahiti")}
	p := testPool(t, Options{Devices: devs})
	_, err := p.Estimate(matrix.Single, 256, 256, 256)
	if !errors.Is(err, ErrUnpriceable) {
		t.Fatalf("Estimate on unpriceable pool: err = %v, want ErrUnpriceable", err)
	}
}

// A healthy pool must keep estimating as before.
func TestEstimateStillPriceable(t *testing.T) {
	p := testPool(t, Options{})
	est, err := p.Estimate(matrix.Double, 512, 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if !(est.GFlops > 0) || !(est.Seconds > 0) {
		t.Fatalf("estimate degenerate: %+v", est)
	}
}

// sumCounters totals every counter whose name starts with prefix.
func sumCounters(s obs.Snapshot, prefix string) int64 {
	var total int64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// An instrumented pool run must account for every unit exactly once
// across the per-member counters, record one run, and emit one span
// per executed unit: sched.tile per C tile, sched.batch.item per item.
func TestPoolMetricsAndSpans(t *testing.T) {
	for _, jk := range jobKinds(96, 96, 48, 1.0, 0.0, 1) {
		t.Run(jk.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			tr := obs.NewTracer(0)
			p := testPool(t, Options{Obs: reg, Trace: tr, Workers: 1})
			if err := jk.run(context.Background(), p, jk.c0.Clone()); err != nil {
				t.Fatal(err)
			}
			wantUnits := int64(jk.units(p))

			s := reg.Snapshot()
			if got := sumCounters(s, "sched.tiles{"); got != wantUnits {
				t.Errorf("sched.tiles total = %d, want %d", got, wantUnits)
			}
			if got := s.Counters["sched.runs"]; got != 1 {
				t.Errorf("sched.runs = %d, want 1", got)
			}
			if h, ok := s.Histograms["sched.run.seconds"]; !ok || h.Count != 1 {
				t.Errorf("sched.run.seconds count = %+v, want 1 observation", h)
			}
			// The members' engines flow into the same registry.
			if got := s.Counters["gemm.plan.miss"]; got <= 0 {
				t.Errorf("gemm.plan.miss = %d, want > 0 (cold plans were built)", got)
			}
			if got := sumCounters(s, "gemm.calls"); got != wantUnits {
				t.Errorf("gemm.calls = %d, want %d (one engine call per unit)", got, wantUnits)
			}
			// So does the clsim layer underneath them.
			if got := s.Counters["clsim.kernel.launches"]; got <= 0 {
				t.Errorf("clsim.kernel.launches = %d, want > 0", got)
			}

			var unitSpans int64
			for _, rec := range tr.Snapshot() {
				if rec.Name == jk.span {
					unitSpans++
					if rec.Attrs["device"] == "" {
						t.Errorf("%s span missing device attr: %+v", jk.span, rec)
					}
				}
			}
			if unitSpans != wantUnits {
				t.Errorf("%s spans = %d, want %d", jk.span, unitSpans, wantUnits)
			}
		})
	}
}

// DeviceStats accounting must stay consistent under concurrent Runs:
// with the race detector on, this doubles as the torn-snapshot check,
// and the totals must add up exactly — every tile counted once, steals
// a subset of tiles, no member left with a mid-update snapshot.
func TestPoolStatsConcurrentRuns(t *testing.T) {
	reg := obs.NewRegistry()
	p := testPool(t, Options{Obs: reg, Workers: 1})

	const runs = 6
	const m, n, k = 64, 64, 32
	var wantTiles int64
	{
		tm, tn := p.tileDims(m, n, len(p.members))
		wantTiles = int64(runs * len(tilesFor(m, n, tm, tn)))
	}

	var wg sync.WaitGroup
	errs := make([]error, runs)
	for r := 0; r < runs; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			a := randMat[float32](m, k, int64(10*r+1))
			b := randMat[float32](k, n, int64(10*r+2))
			c := randMat[float32](m, n, int64(10*r+3))
			errs[r] = RunCtx(context.Background(), p, blas.NoTrans, blas.NoTrans, float32(1), a, b, float32(0), c)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", r, err)
		}
	}

	var tiles, stolen int64
	for _, st := range p.Stats() {
		tiles += int64(st.Tiles)
		stolen += int64(st.Stolen)
		if st.Stolen > st.Tiles {
			t.Errorf("%s: stolen %d > tiles %d (torn counters)", st.Device, st.Stolen, st.Tiles)
		}
		if st.Tiles > 0 && st.BusySeconds < 0 {
			t.Errorf("%s: negative busy time %v", st.Device, st.BusySeconds)
		}
		if st.Dead {
			t.Errorf("%s: died without faults", st.Device)
		}
	}
	if tiles != wantTiles {
		t.Errorf("total tiles = %d, want %d (lost or double-counted updates)", tiles, wantTiles)
	}
	if got := sumCounters(reg.Snapshot(), "sched.tiles{"); got != wantTiles {
		t.Errorf("registry sched.tiles total = %d, want %d", got, wantTiles)
	}
}
