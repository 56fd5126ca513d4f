package oclgemm

// One benchmark per table and figure of the paper's evaluation section,
// plus the ablations DESIGN.md calls out and micro-benchmarks of the
// substrates. Each table/figure benchmark regenerates its experiment
// from scratch (fresh session: the tuning searches actually run), so a
// single iteration is the cost of reproducing that artifact.
//
// The candidate budget per search defaults to 4000 and can be raised
// with -budget to approach the paper's "tens of thousands" scale.

import (
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/experiments"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
	"oclgemm/internal/perfmodel"
	"oclgemm/internal/tunedb"
)

var benchBudget = flag.Int("budget", 4000, "tuner candidate budget per search in benchmarks")

func newSession() *experiments.Session {
	return experiments.NewSession(experiments.Config{MaxCandidates: *benchBudget, MaxSize: 6144})
}

func sink(b *testing.B, s string) {
	if len(s) == 0 {
		b.Fatal("empty experiment output")
	}
}

// --- Tables ------------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sink(b, newSession().Table1().Render())
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().Table2()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().Table3()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

// --- Figures -----------------------------------------------------------------

func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		for _, prec := range []matrix.Precision{matrix.Double, matrix.Single} {
			fig, err := s.Fig7(prec)
			if err != nil {
				b.Fatal(err)
			}
			sink(b, fig.Render())
		}
	}
}

func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		for _, prec := range []matrix.Precision{matrix.Double, matrix.Single} {
			fig, err := s.Fig9(prec)
			if err != nil {
				b.Fatal(err)
			}
			sink(b, fig.Render())
		}
	}
}

func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := newSession()
		for _, prec := range []matrix.Precision{matrix.Double, matrix.Single} {
			fig, err := s.Fig10(prec)
			if err != nil {
				b.Fatal(err)
			}
			sink(b, fig.Render())
		}
	}
}

func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := newSession().Fig11()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, fig.Render())
	}
}

// --- Ablations (design choices called out in DESIGN.md) -----------------------

func BenchmarkAblationLocalMemory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().AblationLocalMemory()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

func BenchmarkAblationLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().AblationLayout()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

func BenchmarkAblationBankConflict(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := newSession().BankConflictSeries()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, fig.Render())
	}
}

func BenchmarkCypressComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().CypressComparison()
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

func BenchmarkPortability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := newSession().PortabilityTable(matrix.Single)
		if err != nil {
			b.Fatal(err)
		}
		sink(b, t.Render())
	}
}

// --- Substrate micro-benchmarks -----------------------------------------------

// BenchmarkPerfModelEval measures one analytic kernel-time evaluation —
// the unit of work the tuner performs tens of thousands of times.
func BenchmarkPerfModelEval(b *testing.B) {
	d := device.Tahiti()
	p := codegen.Params{
		Precision: matrix.Single, Algorithm: codegen.BA,
		Mwg: 96, Nwg: 96, Kwg: 16, MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.KernelGFlops(d, &p, 4032, 4032, 4032); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpaceEnumerate measures a full candidate-space sweep
// (validity checks only), i.e. the tuner's stage-0 cost.
func BenchmarkSpaceEnumerate(b *testing.B) {
	d := device.Tahiti()
	s := core.DefaultSpace(d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		valid, _ := s.Enumerate(d, matrix.Double, func(codegen.Params) bool { return true })
		if valid == 0 {
			b.Fatal("empty space")
		}
	}
}

// BenchmarkTuneSearch measures one complete three-stage search.
func BenchmarkTuneSearch(b *testing.B) {
	d := device.Tahiti()
	for i := 0; i < b.N; i++ {
		tn, err := core.New(core.Options{Device: d, Precision: matrix.Single,
			MaxCandidates: *benchBudget})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tn.Search(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNativeKernel measures the functional lockstep execution of
// one tuned kernel on a small problem (the correctness path).
func BenchmarkNativeKernel(b *testing.B) {
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 32, Nwg: 32, Kwg: 16, MdimC: 8, NdimC: 8, MdimA: 8, NdimB: 8,
		Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	m, n, k := 64, 64, 32
	a := make([]float64, k*m)
	bb := make([]float64, k*n)
	c := make([]float64, m*n)
	rng := rand.New(rand.NewSource(1))
	for i := range a {
		a[i] = rng.Float64()
	}
	for i := range bb {
		bb[i] = rng.Float64()
	}
	kern, err := kernels.NewGEMM(p, m, n, k, 1.0, a, bb, 0.0, c)
	if err != nil {
		b.Fatal(err)
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	b.SetBytes(int64(8 * 2 * m * n * k / (m + n))) // nominal traffic
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCLCKernel measures executing the generated OpenCL C on the
// clc bytecode VM for one work-group-sized problem (the source-fidelity
// path).
func BenchmarkCLCKernel(b *testing.B) {
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 16, Nwg: 16, Kwg: 8, MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	src, err := p.GenerateSource()
	if err != nil {
		b.Fatal(err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		b.Fatal(err)
	}
	kern, _ := prog.Kernel(codegen.KernelName)
	m, n, k := 16, 16, 8
	a := make([]float64, k*m)
	bb := make([]float64, k*n)
	c := make([]float64, m*n)
	bound, err := kern.Bind(m, n, k, 1.0, 0.0, a, bb, c)
	if err != nil {
		b.Fatal(err)
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	nd := clsim.NDRange{Global: [2]int{4, 4}, Local: [2]int{4, 4}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.Run(bound, nd); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPackCBL measures the layout-change copy the implementations
// perform before every kernel launch.
func BenchmarkPackCBL(b *testing.B) {
	src := matrix.New[float64](512, 512, matrix.RowMajor)
	src.FillRandom(rand.New(rand.NewSource(2)))
	b.SetBytes(512 * 512 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Pad 512 up to the blocking multiples (528 = 11·48, 576 = 6·96).
		matrix.Pack(src, true, 528, 576, 48, 96, matrix.LayoutCBL)
	}
}

// BenchmarkReferenceGEMM measures the pure-Go oracle.
func BenchmarkReferenceGEMM(b *testing.B) {
	n := 128
	a := matrix.New[float64](n, n, matrix.RowMajor)
	bb := matrix.New[float64](n, n, matrix.RowMajor)
	c := matrix.New[float64](n, n, matrix.RowMajor)
	a.FillRandom(rand.New(rand.NewSource(3)))
	bb.FillRandom(rand.New(rand.NewSource(4)))
	b.SetBytes(int64(2 * n * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blas.GEMMBlocked(blas.NoTrans, blas.NoTrans, 1.0, a, bb, 0.0, c)
	}
}

// --- Execution engine ----------------------------------------------------------

func benchGEMMParams() (*device.Spec, codegen.Params) {
	return device.Tahiti(), codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 32, Nwg: 32, Kwg: 16, MdimC: 8, NdimC: 8, MdimA: 8, NdimB: 8,
		Kwi: 2, VectorWidth: 1, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
}

func benchGEMMOperands(n int) (a, bm, c *Matrix[float64]) {
	rng := rand.New(rand.NewSource(5))
	a = NewMatrix[float64](n, n, ColMajor)
	bm = NewMatrix[float64](n, n, ColMajor)
	c = NewMatrix[float64](n, n, ColMajor)
	a.FillRandom(rng)
	bm.FillRandom(rng)
	return
}

// BenchmarkGEMMColdPath rebuilds the routine every call: context,
// device buffers and kernels are constructed and torn down per
// iteration — the setup cost the execution engine exists to amortize.
func BenchmarkGEMMColdPath(b *testing.B) {
	d, p := benchGEMMParams()
	am, bm, cm := benchGEMMOperands(96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := NewGEMM(d, p)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.Run(NoTrans, NoTrans, 1.0, am, bm, 0.0, cm); err != nil {
			b.Fatal(err)
		}
		g.Close()
	}
}

// BenchmarkGEMMPlanReuse is the steady-state counterpart: one routine,
// repeated calls. The plan, buffers and packed operands are reused, so
// allocations per op should be near zero (compare with the cold path).
func BenchmarkGEMMPlanReuse(b *testing.B) {
	d, p := benchGEMMParams()
	g, err := NewGEMM(d, p)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	am, bm, cm := benchGEMMOperands(96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Run(NoTrans, NoTrans, 1.0, am, bm, 0.0, cm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGEMMBatch runs a batch sharing one A operand (one weight
// matrix against a stream of inputs), the engine's intended serving
// shape.
func BenchmarkGEMMBatch(b *testing.B) {
	d, p := benchGEMMParams()
	g, err := NewGEMM(d, p)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Close()
	n := 96
	am, _, _ := benchGEMMOperands(n)
	rng := rand.New(rand.NewSource(6))
	calls := make([]GEMMCall[float64], 8)
	for i := range calls {
		bm := NewMatrix[float64](n, n, ColMajor)
		bm.FillRandom(rng)
		calls[i] = GEMMCall[float64]{
			TransA: NoTrans, TransB: NoTrans,
			Alpha: 1.0, A: am, B: bm,
			Beta: 0, C: NewMatrix[float64](n, n, ColMajor),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := RunBatch(g, calls); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroKernel times raw kernel launches on pre-packed
// operands for two paper Table II DGEMM kernels: unit (tahiti, BA,
// unit-stride work-items) and strided (sandybridge, DB, StrideN). Both
// run the one micro-kernel; M and N are padded to each kernel's tiles.
// The GFlop/s metric is simulator (host) throughput, not modeled
// device time.
func BenchmarkMicroKernel(b *testing.B) {
	db := tunedb.PaperTableII()
	const k = 192
	for _, size := range []int{192, 1056} {
		for _, leg := range []struct{ mode, device string }{{"unit", "tahiti"}, {"strided", "sandybridge"}} {
			rec, err := db.Lookup(leg.device, matrix.Double)
			if err != nil {
				b.Fatal(err)
			}
			p, err := rec.Params()
			if err != nil {
				b.Fatal(err)
			}
			spec, err := device.ByID(leg.device)
			if err != nil {
				b.Fatal(err)
			}
			m, n := matrix.PadDim(size, p.Mwg), matrix.PadDim(size, p.Nwg)
			a := make([]float64, k*m)
			bb := make([]float64, k*n)
			c := make([]float64, m*n)
			rng := rand.New(rand.NewSource(7))
			for i := range a {
				a[i] = rng.Float64()
			}
			for i := range bb {
				bb[i] = rng.Float64()
			}
			b.Run(fmt.Sprintf("n=%d/%s", size, leg.mode), func(b *testing.B) {
				kern, err := kernels.NewGEMM(p, m, n, k, 1.0, a, bb, 0.0, c)
				if err != nil {
					b.Fatal(err)
				}
				q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: spec}))
				flops := 2 * float64(m) * float64(n) * float64(k)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
			})
		}
	}
}

// BenchmarkFullGEMMFunctional measures the complete host-side routine
// (pack + simulate + unpack) on a modest problem.
func BenchmarkFullGEMMFunctional(b *testing.B) {
	d := device.Tahiti()
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 32, Nwg: 32, Kwg: 16, MdimC: 8, NdimC: 8, MdimA: 8, NdimB: 8,
		Kwi: 2, VectorWidth: 1, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	g, err := NewGEMM(d, p)
	if err != nil {
		b.Fatal(err)
	}
	n := 96
	rng := rand.New(rand.NewSource(5))
	am := NewMatrix[float64](n, n, ColMajor)
	bm := NewMatrix[float64](n, n, ColMajor)
	cm := NewMatrix[float64](n, n, ColMajor)
	am.FillRandom(rng)
	bm.FillRandom(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Run(NoTrans, NoTrans, 1.0, am, bm, 0.0, cm); err != nil {
			b.Fatal(err)
		}
	}
}
