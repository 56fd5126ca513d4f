package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/blas"
	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
)

// runKernel runs the kernel on row-major A (M×K), B (K×N) and C and
// returns the result matrix.
func runKernel(t *testing.T, p codegen.Params, m, n, k int, alpha float64,
	a, b, c *matrix.Matrix[float64], beta float64) *matrix.Matrix[float64] {
	t.Helper()
	got, _ := launch(t, p, m, n, k, alpha, beta, a, b, c)
	return matrix.FromSlice(m, n, matrix.RowMajor, got)
}

func refGEMM(alpha float64, a, b, c *matrix.Matrix[float64], beta float64) *matrix.Matrix[float64] {
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)
	return want
}

func randMats(m, n, k int, seed int64) (a, b, c *matrix.Matrix[float64]) {
	rng := rand.New(rand.NewSource(seed))
	a = matrix.New[float64](m, k, matrix.RowMajor)
	b = matrix.New[float64](k, n, matrix.RowMajor)
	c = matrix.New[float64](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	return
}

// base returns a small valid parameter set to mutate in tests.
func base() codegen.Params {
	return codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
}

func checkKernel(t *testing.T, p codegen.Params, m, n, k int, seed int64) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid test params: %v", err)
	}
	a, b, c := randMats(m, n, k, seed)
	got := runKernel(t, p, m, n, k, 1.25, a, b, c, -0.5)
	want := refGEMM(1.25, a, b, c, -0.5)
	if d := matrix.MaxRelDiff(got, want); d > 1e-12 {
		t.Errorf("%s: max rel diff %g vs reference", p.Name(), d)
	}
}

func TestBAAllLayoutCombos(t *testing.T) {
	for _, la := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, lb := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
			p := base()
			p.LayoutA, p.LayoutB = la, lb
			checkKernel(t, p, 16, 16, 16, 1)
		}
	}
}

func TestBASharedModes(t *testing.T) {
	for _, sh := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := base()
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkKernel(t, p, 16, 24, 20, 2)
	}
}

func TestBAStrideModes(t *testing.T) {
	for _, st := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := base()
		p.StrideM, p.StrideN = st[0], st[1]
		checkKernel(t, p, 16, 16, 12, 3)
	}
}

func TestBAVectorWidths(t *testing.T) {
	for _, vw := range []int{1, 2, 4} {
		p := base()
		p.Nwg = 16 // Nwi = 4
		p.VectorWidth = vw
		p.StrideN = true // vw interacts with the strided mapping
		checkKernel(t, p, 16, 32, 12, 4)
	}
}

func TestBAReshapedLoads(t *testing.T) {
	// MdimA=8 (KdimA=2), NdimB=2 (KdimB=8): reshaped cooperative loads.
	p := base()
	p.Mwg, p.Nwg, p.Kwg = 16, 16, 8
	p.MdimA, p.NdimB = 8, 2
	p.Kwi = 2
	checkKernel(t, p, 32, 32, 16, 5)
}

func TestPLMatchesReference(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
		p := base()
		p.Algorithm = codegen.PL
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkKernel(t, p, 16, 16, 16, 6) // K = 4·Kwg: prologue, 2 pipelined, epilogue
	}
}

func TestPLMinimumK(t *testing.T) {
	p := base()
	p.Algorithm = codegen.PL
	checkKernel(t, p, 8, 8, 8, 7) // K = 2·Kwg: one pipelined iteration
}

func TestDBMatchesReference(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {true, false}, {false, true}} {
		p := base()
		p.Algorithm = codegen.DB
		p.Kwg = 8 // KwiA = KwiB = 2 (even halves for the double buffers)
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkKernel(t, p, 16, 16, 32, 8)
	}
}

func TestDBMinimumK(t *testing.T) {
	p := base()
	p.Algorithm = codegen.DB
	p.Kwg = 8
	checkKernel(t, p, 8, 8, 16, 9)
}

func TestPaperTahitiConfigsFunctional(t *testing.T) {
	// The paper's Tahiti SGEMM config (scaled problem), double precision
	// for a tight tolerance.
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 96, Nwg: 96, Kwg: 16,
		MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	checkKernel(t, p, 96, 96, 32, 10)
}

func TestRectangularProblem(t *testing.T) {
	p := base()
	checkKernel(t, p, 24, 40, 28, 11)
}

func TestFloat32Kernel(t *testing.T) {
	p := base()
	p.Precision = matrix.Single
	m, n, k := 16, 16, 12
	rng := rand.New(rand.NewSource(12))
	a := matrix.New[float32](m, k, matrix.RowMajor)
	b := matrix.New[float32](k, n, matrix.RowMajor)
	c := matrix.New[float32](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)

	got, _ := launch(t, p, m, n, k, float32(2), float32(0.5), a, b, c)
	cc := matrix.FromSlice(m, n, matrix.RowMajor, got)
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, float32(2), a, b, float32(0.5), want)
	if d := matrix.MaxRelDiff(cc, want); d > float64(matrix.Tolerance(matrix.Single, k)) {
		t.Errorf("float32 kernel diff %g", d)
	}
}

func TestNewGEMMErrors(t *testing.T) {
	p := base()
	a := make([]float64, 16*16)
	c := make([]float64, 16*16)
	if _, err := NewGEMM(p, 15, 16, 16, 1.0, a, a, 0.0, c); err == nil {
		t.Error("unpadded M must fail")
	}
	if _, err := NewGEMM(p, 16, 16, 16, 1.0, a[:10], a, 0.0, c); err == nil {
		t.Error("short buffer must fail")
	}
	bad := p
	bad.Kwi = 3
	if _, err := NewGEMM(bad, 16, 16, 16, 1.0, a, a, 0.0, c); err == nil {
		t.Error("invalid params must fail")
	}
	pl := p
	pl.Algorithm = codegen.PL
	if _, err := NewGEMM(pl, 16, 16, 4, 1.0, a, a, 0.0, c); err == nil {
		t.Error("K below PL minimum must fail")
	}
}

// Property: random valid small configurations across all three
// algorithms agree with the reference.
func TestKernelPropertyRandomConfigs(t *testing.T) {
	f := func(algSel, mdim, ndim, mwiS, nwiS, kwgS, kwiS, vwS, shSel, stSel, layA, layB uint8, seed int64) bool {
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     []int{2, 4}[mdim%2],
			NdimC:     []int{2, 4}[ndim%2],
			Kwi:       []int{1, 2}[kwiS%2],
			SharedA:   shSel&1 != 0,
			SharedB:   shSel&2 != 0,
			StrideM:   stSel&1 != 0,
			StrideN:   stSel&2 != 0,
			LayoutA:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layA%3],
			LayoutB:   []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layB%3],
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2] // keep Nwi even for vw=2
		p.Kwg = 4 * (int(kwgS%2) + 1)
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		if err := p.Validate(); err != nil {
			return true // not a valid draw; skip
		}
		m := p.Mwg * 2
		n := p.Nwg
		k := p.Kwg * 2
		a, b, c := randMats(m, n, k, seed)
		got := runKernel(t, p, m, n, k, 1.0, a, b, c, 1.0)
		want := refGEMM(1.0, a, b, c, 1.0)
		return matrix.MaxRelDiff(got, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
