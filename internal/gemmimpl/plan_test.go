package gemmimpl

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
)

var errInjected = errors.New("injected launch fault")

func testImplSingle(t *testing.T) *Impl {
	t.Helper()
	p := codegen.Params{
		Precision: matrix.Single, Algorithm: codegen.BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 2,
		SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutRBL,
	}
	im, err := New(device.Fermi(), p)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// checkGEMM runs one plan call and compares against the host reference.
func checkGEMM(t *testing.T, pl *Plan[float64], ta, tb blas.Transpose, alpha float64, a, b *matrix.Matrix[float64], beta float64, c *matrix.Matrix[float64]) {
	t.Helper()
	want := c.Clone()
	blas.GEMM(ta, tb, alpha, a, b, beta, want)
	if err := pl.RunCtx(context.Background(), ta, tb, alpha, a, b, beta, c); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxRelDiff(c, want); d > 1e-12 {
		t.Fatalf("diff %g vs reference", d)
	}
}

// A repeated call with unchanged A and B must skip both packs; mutating
// an operand must trigger a repack and still compute correctly.
func TestPlanPackReuse(t *testing.T) {
	im := testImpl(t)
	m, n, k := 13, 19, 11
	pl, err := NewPlan[float64](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	a, b := randCM(m, k, 1), randCM(k, n, 2)

	checkGEMM(t, pl, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0, randCM(m, n, 3))
	checkGEMM(t, pl, blas.NoTrans, blas.NoTrans, 2.5, a, b, 0, randCM(m, n, 4))
	st := pl.Stats()
	if st.PackA != 1 || st.PackB != 1 || st.ReusedA != 1 || st.ReusedB != 1 {
		t.Errorf("after identical rerun: %+v", st)
	}

	// In-place mutation (no pointer change) must invalidate the pack.
	a.Set(0, 0, a.At(0, 0)+1)
	checkGEMM(t, pl, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0, randCM(m, n, 5))
	st = pl.Stats()
	if st.PackA != 2 || st.ReusedA != 1 || st.ReusedB != 2 {
		t.Errorf("after mutating A: %+v", st)
	}

	// A different transpose flag changes the packed form even for
	// identical contents.
	sq := randCM(8, 8, 6)
	pls, err := NewPlan[float64](im, 8, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pls.Close()
	checkGEMM(t, pls, blas.NoTrans, blas.NoTrans, 1, sq, sq, 0, randCM(8, 8, 7))
	checkGEMM(t, pls, blas.Trans, blas.NoTrans, 1, sq, sq, 0, randCM(8, 8, 7))
	if st := pls.Stats(); st.PackA != 2 {
		t.Errorf("transpose change must repack A: %+v", st)
	}
}

// beta == 0 must not read C: a NaN-poisoned C must produce the clean
// product, through both the one-shot path and a warm plan whose device
// buffer holds stale data from a previous call.
func TestBetaZeroDoesNotReadC(t *testing.T) {
	im := testImpl(t)
	m, n, k := 13, 19, 11
	a, b := randCM(m, k, 1), randCM(k, n, 2)
	want := matrix.New[float64](m, n, matrix.ColMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.5, a, b, 0, want)

	poison := func() *matrix.Matrix[float64] {
		c := matrix.New[float64](m, n, matrix.ColMajor)
		for i := range c.Data {
			c.Data[i] = math.NaN()
		}
		return c
	}

	// One-shot (cold) path.
	c := poison()
	if err := Run(im, blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.0, c); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxRelDiff(c, want); d > 1e-12 || math.IsNaN(d) {
		t.Errorf("one-shot beta=0 with NaN C: diff %v", d)
	}

	// Warm plan: first poison the device C buffer via a beta != 0 call,
	// then ensure beta == 0 ignores both host and device C state.
	pl, err := NewPlan[float64](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	c2 := randCM(m, n, 3)
	if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c2); err != nil {
		t.Fatal(err)
	}
	c = poison()
	if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.5, a, b, 0.0, c); err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxRelDiff(c, want); d > 1e-12 || math.IsNaN(d) {
		t.Errorf("warm beta=0 with NaN C: diff %v", d)
	}
	st := pl.Stats()
	if st.SkippedC != 1 || st.PackC != 1 {
		t.Errorf("C pack accounting: %+v", st)
	}
}

// A plan serves exactly one padded shape and rejects use after Close.
func TestPlanShapeAndClosedErrors(t *testing.T) {
	im := testImpl(t)
	pl, err := NewPlan[float64](im, 13, 19, 11)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c := randCM(40, 40, 1), randCM(40, 40, 2), randCM(40, 40, 3)
	if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err == nil {
		t.Error("padded-shape mismatch must fail")
	} else if !strings.Contains(err.Error(), "plan holds") {
		t.Errorf("unexpected mismatch error: %v", err)
	}
	pl.Close()
	pl.Close() // idempotent
	a, b, c = randCM(13, 11, 1), randCM(11, 19, 2), randCM(13, 19, 3)
	if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err == nil {
		t.Error("Run on closed plan must fail")
	}
}

// Device buffer accounting must balance on every path: steady-state runs
// must not grow the live set, failed launches (fault injection at each
// of the four kernels of a call) must not strand buffers, and Close must
// release everything.
func TestPlanBufferAccounting(t *testing.T) {
	im := testImpl(t)
	m, n, k := 13, 19, 11
	mk := func(seed int64) (a, b, c *matrix.Matrix[float64]) {
		return randCM(m, k, seed), randCM(k, n, seed+1), randCM(m, n, seed+2)
	}

	t.Run("steady-state", func(t *testing.T) {
		pl, err := NewPlan[float64](im, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := mk(1)
		if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c); err != nil {
			t.Fatal(err)
		}
		after1 := pl.Context().BufferStats()
		for i := int64(0); i < 5; i++ {
			a, b, c := mk(10 * i)
			if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c); err != nil {
				t.Fatal(err)
			}
		}
		st := pl.Context().BufferStats()
		if st.Created != after1.Created || st.Live != after1.Live {
			t.Errorf("steady state grew the buffer set: %+v -> %+v", after1, st)
		}
		pl.Close()
		st = pl.Context().BufferStats()
		if st.Live != 0 || st.LiveBytes != 0 || st.Created != st.Released {
			t.Errorf("leak after Close: %+v", st)
		}
	})

	// Fail the Nth kernel launch of a beta != 0 call (pack A, pack B,
	// pack C, then GEMM) and verify no buffer is stranded.
	for fail := int64(1); fail <= 4; fail++ {
		var launch int64
		imf := testImpl(t)
		imf.SetLaunchHook(func(string) error {
			if atomic.AddInt64(&launch, 1) == fail {
				return errInjected
			}
			return nil
		})
		pl, err := NewPlan[float64](imf, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := mk(fail)
		if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c); err == nil {
			t.Fatalf("fail=%d: injected fault must surface", fail)
		}
		pl.Close()
		st := pl.Context().BufferStats()
		if st.Live != 0 || st.LiveBytes != 0 || st.Created != st.Released {
			t.Errorf("fail=%d: leak after faulted run + Close: %+v", fail, st)
		}
		// The plan must recover once the fault clears: rebuild and run.
		pl2, err := NewPlan[float64](imf, m, n, k)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl2.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c); err != nil {
			t.Errorf("fail=%d: clean rerun failed: %v", fail, err)
		}
		pl2.Close()
	}
}

// The cache must bound live plans with LRU eviction and rebuild on
// re-access.
func TestPlanCacheLRU(t *testing.T) {
	im := testImpl(t)
	pc := NewPlanCache[float64](im, 2)
	defer pc.Close()
	run := func(m, n, k int, seed int64) {
		t.Helper()
		a, b, c := randCM(m, k, seed), randCM(k, n, seed+1), randCM(m, n, seed+2)
		want := c.Clone()
		blas.GEMM(blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, want)
		if err := pc.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.5, c); err != nil {
			t.Fatal(err)
		}
		if d := matrix.MaxRelDiff(c, want); d > 1e-12 {
			t.Fatalf("%dx%dx%d: diff %g", m, n, k, d)
		}
	}
	run(8, 8, 8, 1)
	run(16, 16, 16, 2)
	if pc.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pc.Len())
	}
	run(24, 24, 24, 3) // evicts the 8³ plan (LRU)
	if pc.Len() != 2 {
		t.Fatalf("Len after eviction = %d, want 2", pc.Len())
	}
	run(16, 16, 16, 4) // still cached: reuses its plan
	run(8, 8, 8, 5)    // evicted: rebuilt transparently
	// Stats sums live plans only: the 16³ plan survived with 2 runs, the
	// rebuilt 8³ plan has 1; the evicted plans' counters are gone.
	if got := pc.Stats().Runs; got != 3 {
		t.Errorf("aggregate live Runs = %d, want 3", got)
	}
}

// Engine + RunBatch: calls sharing a padded shape share one plan, and a
// repeated A operand is packed once across the batch.
func TestEngineRunBatch(t *testing.T) {
	im := testImpl(t)
	e := NewEngine(im)
	defer e.Close()
	m, n, k := 13, 19, 11
	a := randCM(m, k, 1)
	calls := make([]Call[float64], 4)
	wants := make([]*matrix.Matrix[float64], len(calls))
	for i := range calls {
		b := randCM(k, n, int64(10+i))
		c := randCM(m, n, int64(20+i))
		wants[i] = c.Clone()
		blas.GEMM(blas.NoTrans, blas.NoTrans, 2.0, a, b, 0.25, wants[i])
		calls[i] = Call[float64]{
			TransA: blas.NoTrans, TransB: blas.NoTrans,
			Alpha: 2.0, A: a, B: b, Beta: 0.25, C: c,
		}
	}
	if err := RunBatchCtx(context.Background(), e, calls); err != nil {
		t.Fatal(err)
	}
	for i, cl := range calls {
		if d := matrix.MaxRelDiff(cl.C, wants[i]); d > 1e-12 {
			t.Errorf("call %d: diff %g", i, d)
		}
	}
	st := e.Cache64().Stats()
	if st.Runs != 4 || st.PackA != 1 || st.ReusedA != 3 || st.PackB != 4 {
		t.Errorf("batch stats: %+v", st)
	}

	// A bad call reports its index.
	bad := []Call[float64]{{TransA: blas.NoTrans, TransB: blas.NoTrans,
		Alpha: 1, A: randCM(4, 5, 1), B: randCM(6, 7, 2), Beta: 0, C: randCM(4, 7, 3)}}
	if err := RunBatchCtx(context.Background(), e, bad); err == nil || !strings.Contains(err.Error(), "batch call 0") {
		t.Errorf("batch error attribution: %v", err)
	}
}

// The float32 cache of an engine built from a single-precision Impl.
func TestEngineFloat32(t *testing.T) {
	im := testImplSingle(t)
	e := NewEngine(im)
	defer e.Close()
	m, n, k := 10, 9, 7
	a := matrix.New[float32](m, k, matrix.ColMajor)
	b := matrix.New[float32](k, n, matrix.ColMajor)
	c := matrix.New[float32](m, n, matrix.ColMajor)
	rng := rand.New(rand.NewSource(9))
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	for i := 0; i < 2; i++ {
		if err := EngineRunCtx(context.Background(), e, blas.NoTrans, blas.NoTrans, float32(1.5), a, b, float32(0.5), c); err != nil {
			t.Fatal(err)
		}
		blas.GEMM(blas.NoTrans, blas.NoTrans, float32(1.5), a, b, float32(0.5), want)
		// c was updated in place; want tracks the same recurrence.
		if d := matrix.MaxRelDiff(c, want); d > float64(matrix.Tolerance(matrix.Single, k)) {
			t.Errorf("run %d: diff %g", i, d)
		}
	}
	if st := e.Cache32().Stats(); st.ReusedA != 1 || st.ReusedB != 1 {
		t.Errorf("float32 reuse stats: %+v", st)
	}
}

// Work-group parallelism must be invisible in the results: serial and
// parallel execution of the same problem agree bit-for-bit.
func TestPlanWorkersDeterministic(t *testing.T) {
	m, n, k := 33, 29, 17
	a, b := randCM(m, k, 1), randCM(k, n, 2)
	var ref *matrix.Matrix[float64]
	for _, workers := range []int{1, 4, 0} {
		im := testImpl(t)
		im.SetWorkers(workers)
		c := randCM(m, n, 3)
		if err := Run(im, blas.NoTrans, blas.NoTrans, 1.5, a, b, -0.25, c); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = c
			continue
		}
		for i, v := range c.Data {
			if v != ref.Data[i] {
				t.Fatalf("workers=%d: C[%d] = %v, want %v (not bit-identical)", workers, i, v, ref.Data[i])
			}
		}
	}
}

// The steady-state plan path must allocate at least 10x fewer bytes per
// call than the cold one-shot path (the engine's reason to exist).
func TestPlanSteadyStateAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmarks under -short")
	}
	// A deep problem (large k, one work-group of C) makes the setup the
	// plan amortizes — context, kernel builds, k-proportional device
	// buffers and uploads — dominate the cold path, while the warm path
	// reuses the packed operands entirely. Serial workers keep scheduler
	// allocations out of the comparison.
	im := testImpl(t)
	im.SetWorkers(1)
	m, n, k := 8, 8, 512
	a, b, c := randCM(m, k, 1), randCM(k, n, 2), randCM(m, n, 3)

	cold := testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			if err := Run(im, blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err != nil {
				bb.Fatal(err)
			}
		}
	})
	pl, err := NewPlan[float64](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	warm := testing.Benchmark(func(bb *testing.B) {
		bb.ReportAllocs()
		for i := 0; i < bb.N; i++ {
			if err := pl.RunCtx(context.Background(), blas.NoTrans, blas.NoTrans, 1.0, a, b, 0.0, c); err != nil {
				bb.Fatal(err)
			}
		}
	})
	cb, wb := cold.AllocedBytesPerOp(), warm.AllocedBytesPerOp()
	t.Logf("cold %d B/op, warm %d B/op", cb, wb)
	if wb*10 > cb {
		t.Errorf("plan reuse saves too little: cold %d B/op vs warm %d B/op (want >= 10x)", cb, wb)
	}
}

// Exhaustive functional table: all four GEMM types at sizes crossing the
// blocking boundaries (1, below, just above, and well above a padded
// tile) in both storage orders and both precisions, against the host
// reference.
func TestGEMMTableAllTypes(t *testing.T) {
	sizes := []int{1, 7, 33, 129}
	t.Run("double", func(t *testing.T) {
		runGEMMTable[float64](t, testImpl(t), sizes)
	})
	t.Run("single", func(t *testing.T) {
		runGEMMTable[float32](t, testImplSingle(t), sizes)
	})
}

func runGEMMTable[T matrix.Scalar](t *testing.T, im *Impl, sizes []int) {
	// One cache large enough to hold every padded shape of the table, so
	// the sweep also exercises sustained plan reuse.
	pc := NewPlanCache[T](im, len(sizes)*len(sizes)*len(sizes))
	defer pc.Close()
	alpha, beta := T(1.25), T(-0.5)
	seed := int64(1)
	for _, order := range []matrix.Order{matrix.ColMajor, matrix.RowMajor} {
		for _, g := range blas.GEMMTypes {
			for _, m := range sizes {
				for _, n := range sizes {
					for _, k := range sizes {
						seed++
						ar, ac := m, k
						if g.TransA == blas.Trans {
							ar, ac = k, m
						}
						br, bc := k, n
						if g.TransB == blas.Trans {
							br, bc = n, k
						}
						rng := rand.New(rand.NewSource(seed))
						a := matrix.New[T](ar, ac, order)
						b := matrix.New[T](br, bc, order)
						c := matrix.New[T](m, n, order)
						a.FillRandom(rng)
						b.FillRandom(rng)
						c.FillRandom(rng)
						want := c.Clone()
						blas.GEMM(g.TransA, g.TransB, alpha, a, b, beta, want)
						if err := pc.RunCtx(context.Background(), g.TransA, g.TransB, alpha, a, b, beta, c); err != nil {
							t.Fatalf("%s %v m=%d n=%d k=%d: %v", g, order, m, n, k, err)
						}
						if d := matrix.MaxRelDiff(c, want); d > matrix.Tolerance(im.Params.Precision, k) {
							t.Errorf("%s %v m=%d n=%d k=%d: diff %g", g, order, m, n, k, d)
						}
					}
				}
			}
		}
	}
}

// comparePlanPaths runs one full plan call (device pack, kernel,
// copy-out) and demands its C be bit-identical to kernels.GEMM run
// directly on operands packed host-side by matrix.Pack.
func comparePlanPaths[T matrix.Scalar](t *testing.T, p codegen.Params, ta, tb blas.Transpose, m, n, k int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	newMat := func(r, c int) *matrix.Matrix[T] {
		mt := matrix.New[T](r, c, matrix.ColMajor)
		mt.FillRandom(rng)
		return mt
	}
	a := newMat(m, k)
	if ta == blas.Trans {
		a = newMat(k, m)
	}
	b := newMat(k, n)
	if tb == blas.Trans {
		b = newMat(n, k)
	}
	c0 := newMat(m, n)
	const alpha, beta = 1.25, -0.5

	im, err := New(device.Tahiti(), p)
	if err != nil {
		t.Fatal(err)
	}
	im.SetWorkers(1)
	pl, err := NewPlan[T](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	got := c0.Clone()
	if err := pl.RunCtx(context.Background(), ta, tb, T(alpha), a, b, T(beta), got); err != nil {
		t.Fatal(err)
	}

	// The kernel takes op(A)ᵀ (K×M) and op(B) (K×N).
	mp, np, kp := im.PaddedDims(m, n, k)
	at := matrix.Pack(a, ta == blas.NoTrans, kp, mp, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, tb == blas.Trans, kp, np, p.Kwg, p.Nwg, p.LayoutB)
	cp := matrix.Pack(c0, false, mp, np, p.Mwg, p.Nwg, matrix.LayoutRowMajor)
	kern, err := kernels.NewGEMM(p, mp, np, kp, T(alpha), at.Data, bp.Data, T(beta), cp.Data)
	if err != nil {
		t.Fatal(err)
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if g, w := got.At(i, j), cp.Data[i*np+j]; g != w {
				t.Fatalf("%s ta=%v tb=%v: C[%d,%d] not bit-identical: plan %v, kernel %v",
					p.Name(), ta, tb, i, j, g, w)
			}
		}
	}
}

// The full plan pipeline must be bit-identical to the bare kernel on
// host-packed operands over sampled kernel parameter points × all three
// schedules × all four stride modes × all four transpose types × both
// precisions, with padding on every side.
func TestPlanFastPathMatchesGenericBitIdentical(t *testing.T) {
	samples := []codegen.Params{
		{ // BA, fully shared, blocked layouts (testImpl's point)
			Algorithm: codegen.BA,
			Mwg:       8, Nwg: 8, Kwg: 4,
			MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
			Kwi: 2, VectorWidth: 1,
			SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
		},
		{ // PL, one operand direct from global memory, mixed layouts, vw=2
			Algorithm: codegen.PL,
			Mwg:       8, Nwg: 8, Kwg: 4,
			MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
			Kwi: 2, VectorWidth: 2,
			SharedB: true,
			LayoutA: matrix.LayoutRowMajor, LayoutB: matrix.LayoutRBL,
		},
		{ // DB, even half-panels, blocked layouts
			Algorithm: codegen.DB,
			Mwg:       8, Nwg: 8, Kwg: 8,
			MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
			Kwi: 2, VectorWidth: 1,
			SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutCBL,
		},
		{ // BA, both stride modes
			Algorithm: codegen.BA,
			Mwg:       8, Nwg: 8, Kwg: 4,
			MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
			Kwi: 2, VectorWidth: 1, StrideM: true, StrideN: true,
			SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
		},
		{ // PL, StrideM, A direct from global memory
			Algorithm: codegen.PL,
			Mwg:       8, Nwg: 8, Kwg: 4,
			MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
			Kwi: 2, VectorWidth: 1, StrideM: true,
			SharedB: true,
			LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutCBL,
		},
		{ // DB, StrideN with vw=2 (vector-scaled stride pitch)
			Algorithm: codegen.DB,
			Mwg:       8, Nwg: 8, Kwg: 8,
			MdimC: 4, NdimC: 2, MdimA: 4, NdimB: 2,
			Kwi: 2, VectorWidth: 2, StrideN: true,
			SharedA: true, SharedB: true,
			LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutRowMajor,
		},
	}
	m, n, k := 13, 19, 11 // pads on every side
	var seed int64 = 40
	for _, p := range samples {
		for _, g := range blas.GEMMTypes {
			seed++
			pd := p
			pd.Precision = matrix.Double
			comparePlanPaths[float64](t, pd, g.TransA, g.TransB, m, n, k, seed)
			ps := p
			ps.Precision = matrix.Single
			comparePlanPaths[float32](t, ps, g.TransA, g.TransB, m, n, k, seed)
		}
	}
}
