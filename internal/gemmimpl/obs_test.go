package gemmimpl

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/tunedb"
)

// fingerprint must mix the dimensions and storage order into the hash
// state. The old hash covered only the element stream, so every
// reshaping of one backing slice — 2×8, 4×4, 8×2, row- or col-major,
// all walking the same 16 values in the same order — collided, and the
// engine's pack-skip could reuse a buffer packed for a different shape.
func TestFingerprintMixesShapeAndOrder(t *testing.T) {
	data := make([]float64, 16)
	for i := range data {
		data[i] = float64(i + 1)
	}
	cases := []struct {
		name string
		m    *matrix.Matrix[float64]
	}{
		{"2x8 row-major", matrix.FromSlice(2, 8, matrix.RowMajor, data)},
		{"4x4 row-major", matrix.FromSlice(4, 4, matrix.RowMajor, data)},
		{"8x2 row-major", matrix.FromSlice(8, 2, matrix.RowMajor, data)},
		{"2x8 col-major", matrix.FromSlice(2, 8, matrix.ColMajor, data)},
		{"4x4 col-major", matrix.FromSlice(4, 4, matrix.ColMajor, data)},
	}
	seen := map[uint64]string{}
	for _, tc := range cases {
		fp := fingerprint(tc.m)
		if prev, ok := seen[fp]; ok {
			t.Errorf("fingerprint collision: %s and %s both hash to %#x", prev, tc.name, fp)
		}
		seen[fp] = tc.name
	}
	// Stability: same logical matrix, same fingerprint.
	if fingerprint(cases[0].m) != fingerprint(matrix.FromSlice(2, 8, matrix.RowMajor, data)) {
		t.Error("fingerprint not deterministic for equal matrices")
	}
}

// An instrumented plan must record its per-phase breakdown and call
// counters, and the pack-skip fast path must show up as reuse counts.
func TestPlanPhaseMetricsAndReuseCounters(t *testing.T) {
	im := testImpl(t)
	im.SetWorkers(1)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(64)
	im.SetObservability(reg, tr)

	const m, n, k = 24, 24, 12
	pl, err := NewPlan[float64](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	a := randCM(m, k, 1)
	b := randCM(k, n, 2)
	c := randCM(m, n, 3)
	const calls = 3
	for i := 0; i < calls; i++ {
		if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err != nil {
			t.Fatal(err)
		}
	}

	s := reg.Snapshot()
	if got := s.Counters["gemm.calls"]; got != calls {
		t.Errorf("gemm.calls = %d, want %d", got, calls)
	}
	for _, name := range []string{
		"gemm.call.seconds",
		"gemm.phase.pack.A.seconds",
		"gemm.phase.pack.B.seconds",
		"gemm.phase.kernel.seconds",
		"gemm.phase.copy.out.seconds",
	} {
		if h, ok := s.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %s missing or empty (%+v)", name, h)
		}
	}
	// Calls 2 and 3 hit the unchanged-operand fast path.
	if got := s.Counters["gemm.pack.reused.A"]; got != calls-1 {
		t.Errorf("gemm.pack.reused.A = %d, want %d", got, calls-1)
	}
	if got := s.Counters["gemm.pack.reused.B"]; got != calls-1 {
		t.Errorf("gemm.pack.reused.B = %d, want %d", got, calls-1)
	}
	if tr.Len() == 0 {
		t.Error("tracer recorded no spans")
	}
}

// A plan fed views of larger parents must upload only each view's own
// rows×cols elements: a view's Data runs on to the end of its parent,
// and reading past the view races with other callers writing there
// (pool tiles on neighboring C regions). Each pack span's byte count,
// and the queue's host-to-device total, must match the dense extents,
// and no parent element outside C may change.
func TestPackUploadsViewsDensely(t *testing.T) {
	im := testImpl(t)
	im.SetWorkers(1)
	tr := obs.NewTracer(64)
	im.SetObservability(nil, tr)

	const m, n, k = 13, 19, 11
	pl, err := NewPlan[float64](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()

	pa, pb, pc := randCM(m+5, k+3, 1), randCM(k+4, n+6, 2), randCM(m+7, n+2, 3)
	a, b, c := pa.View(2, 1, m, k), pb.View(3, 2, k, n), pc.View(1, 1, m, n)
	want := pc.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, want.View(1, 1, m, n))
	if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.5, c); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxRelDiff(pc, want); d > 1e-12 {
		t.Fatalf("parent of C differs from reference by %g", d)
	}

	const esz = 8
	wantBytes := map[string]int64{
		"gemm.pack.A": m * k * esz,
		"gemm.pack.B": k * n * esz,
		"gemm.pack.C": m * n * esz,
	}
	for _, rec := range tr.Snapshot() {
		if w, ok := wantBytes[rec.Name]; ok {
			if rec.Bytes != w {
				t.Errorf("%s span bytes = %d, want %d (rows×cols×esz)", rec.Name, rec.Bytes, w)
			}
			delete(wantBytes, rec.Name)
		}
	}
	for name := range wantBytes {
		t.Errorf("no %s span recorded", name)
	}
	if got, w := pl.q.Stats().BytesWritten, int64((m*k+k*n+m*n)*esz); got != w {
		t.Errorf("queue uploaded %d bytes, want %d (only the views' elements)", got, w)
	}
}

// The warm-plan instrumentation tax must stay under 5%: the point of
// the pre-resolved nil-safe instruments is that serving paths can stay
// instrumented in production. Plain and instrumented batches are timed
// back to back and the gate is the median of the per-sample ratios: a
// scheduler hiccup spoils one sample, not a whole side.
func TestWarmPlanOverheadUnderFivePercent(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	const m, n, k = 128, 128, 64
	a := randCM(m, k, 1)
	b := randCM(k, n, 2)
	c := randCM(m, n, 3)

	build := func(instrumented bool) func(reps int) time.Duration {
		im := testImpl(t)
		im.SetWorkers(1)
		if instrumented {
			im.SetObservability(obs.NewRegistry(), obs.NewTracer(0))
		}
		pl, err := NewPlan[float64](im, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(pl.Close)
		return func(reps int) time.Duration {
			start := time.Now()
			for i := 0; i < reps; i++ {
				if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err != nil {
					t.Fatal(err)
				}
			}
			return time.Since(start)
		}
	}
	plain, instr := build(false), build(true)
	// Warm both plans (buffers packed, fingerprints cached), then size
	// a batch to take about 1ms: many short samples keep each ratio
	// local in time, and the median discards the samples an
	// interruption hit.
	plain(1)
	instr(1)
	reps := 1
	for plain(reps) < time.Millisecond {
		reps *= 2
	}

	// Each sample runs plain, instrumented, instrumented, plain: both
	// sides take the first and the second slot after a switch once, so
	// neither gains from running second.
	const samples = 51
	ratios := make([]float64, samples)
	var plainSum, instrSum time.Duration
	for i := range ratios {
		p1, q1 := plain(reps), instr(reps)
		q2, p2 := instr(reps), plain(reps)
		plainSum += p1 + p2
		instrSum += q1 + q2
		ratios[i] = float64(q1+q2) / float64(p1+p2)
	}
	sort.Float64s(ratios)
	overhead := ratios[samples/2] - 1
	t.Logf("warm plan.Run over %d samples of %d calls per side: plain %v/op, instrumented %v/op, median overhead %.2f%% (sample range %.2f%% .. %.2f%%)",
		samples, 2*reps, plainSum/time.Duration(2*samples*reps), instrSum/time.Duration(2*samples*reps),
		100*overhead, 100*(ratios[0]-1), 100*(ratios[samples-1]-1))
	if overhead > 0.05 {
		t.Errorf("median instrumentation overhead %.2f%% exceeds 5%% budget", 100*overhead)
	}
}

// The warm kernel phase must perform zero allocations: work-group state
// and local-memory slabs are pooled in the kernel, Group frames in
// the queue, and the serial lockstep loop is closure-free. This is the
// allocation regression gate for the micro-kernel, held on the
// unit-stride test point and on two strided paper Table II kernels:
// kepler SGEMM (PL, StrideM) and sandybridge DGEMM (DB, StrideN).
func TestWarmKernelPhaseZeroAllocs(t *testing.T) {
	t.Run("fast", func(t *testing.T) { checkWarmKernelZeroAllocs[float64](t, testImpl(t)) })
	for _, leg := range []struct {
		name, device string
		prec         matrix.Precision
	}{
		{"kepler-sgemm-sM", "kepler", matrix.Single},
		{"sandybridge-dgemm-sN", "sandybridge", matrix.Double},
	} {
		t.Run(leg.name, func(t *testing.T) {
			rec, err := tunedb.PaperTableII().Lookup(leg.device, leg.prec)
			if err != nil {
				t.Fatal(err)
			}
			p, err := rec.Params()
			if err != nil {
				t.Fatal(err)
			}
			spec, err := device.ByID(leg.device)
			if err != nil {
				t.Fatal(err)
			}
			im, err := New(spec, p)
			if err != nil {
				t.Fatal(err)
			}
			if leg.prec == matrix.Single {
				checkWarmKernelZeroAllocs[float32](t, im)
			} else {
				checkWarmKernelZeroAllocs[float64](t, im)
			}
		})
	}
}

func checkWarmKernelZeroAllocs[T matrix.Scalar](t *testing.T, im *Impl) {
	im.SetWorkers(1)
	const m, n, k = 24, 24, 12
	pl, err := NewPlan[T](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	rng := rand.New(rand.NewSource(1))
	mat := func(r, c int) *matrix.Matrix[T] {
		x := matrix.New[T](r, c, matrix.ColMajor)
		x.FillRandom(rng)
		return x
	}
	a, b, c := mat(m, k), mat(k, n), mat(m, n)
	// Warm: packs done, state and Group pools populated.
	if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := pl.q.RunLockstep(pl.kern, pl.kern.NDRange()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm kernel phase (%s) allocated %.1f objects/op, want 0", im.Params.Name(), allocs)
	}
}
