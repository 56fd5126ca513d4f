package codegen_test

// Integration of the full code-generation pipeline: the OpenCL C text
// emitted by codegen is compiled by the clc front end, executed on
// the clsim runtime with true per-work-item execution and barriers, and
// compared against both the reference BLAS and the native Go kernels —
// which must agree exactly in double precision, since both execute the
// same schedule in the same accumulation order.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
)

// runGenerated executes the generated source on the clc bytecode VM
// (optimized by default; raw under CLC_DISABLE_OPT), leaving the result
// in c.
func runGenerated(t *testing.T, p codegen.Params, m, n, k int,
	alpha float64, at, bp []float64, beta float64, c []float64) {
	t.Helper()
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("clc compile: %v\n%s", err, src)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := kern.Bind(m, n, k, alpha, beta, at, bp, c)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	if err := q.Run(bound, nd); err != nil {
		t.Fatalf("run: %v\n%s", err, src)
	}
}

// checkGenerated packs inputs, runs the generated source through clc,
// runs the native kernel, and compares both against the reference.
func checkGenerated(t *testing.T, p codegen.Params, m, n, k int, seed int64) {
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("invalid params: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[float64](m, k, matrix.RowMajor)
	b := matrix.New[float64](k, n, matrix.RowMajor)
	c := matrix.New[float64](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	alpha, beta := 1.5, -0.75

	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)

	// Generated source through the clc VM.
	cGen := c.Clone()
	runGenerated(t, p, m, n, k, alpha, at.Data, bp.Data, beta, cGen.Data)

	// Native kernel.
	cNat := c.Clone()
	kern, err := kernels.NewGEMM(p, m, n, k, alpha, at.Data, bp.Data, beta, cNat.Data)
	if err != nil {
		t.Fatal(err)
	}
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)
	if err := q.RunLockstep(kern, kern.NDRange()); err != nil {
		t.Fatal(err)
	}

	// Reference.
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, alpha, a, b, beta, want)

	if d := matrix.MaxRelDiff(cGen, want); d > 1e-12 {
		t.Errorf("%s: generated source differs from reference by %g", p.Name(), d)
	}
	// Same schedule, same accumulation order: the clc VM and the native
	// kernel must agree exactly in double precision.
	if d := matrix.MaxRelDiff(cGen, cNat); d != 0 {
		t.Errorf("%s: generated source differs from native kernel by %g (want exact)", p.Name(), d)
	}
}

func smallParams() codegen.Params {
	return codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
}

func TestGeneratedBAAllLayouts(t *testing.T) {
	for _, la := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
		for _, lb := range []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL} {
			p := smallParams()
			p.LayoutA, p.LayoutB = la, lb
			checkGenerated(t, p, 16, 16, 12, 1)
		}
	}
}

func TestGeneratedSharedModes(t *testing.T) {
	for _, sh := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		p := smallParams()
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkGenerated(t, p, 16, 24, 8, 2)
	}
}

func TestGeneratedStrideAndVector(t *testing.T) {
	for _, st := range [][2]bool{{false, false}, {true, true}} {
		for _, vw := range []int{1, 2, 4} {
			p := smallParams()
			p.Nwg = 16 // Nwi = 4
			p.StrideM, p.StrideN = st[0], st[1]
			p.VectorWidth = vw
			checkGenerated(t, p, 16, 32, 8, 3)
		}
	}
}

func TestGeneratedPL(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {true, false}, {false, false}} {
		p := smallParams()
		p.Algorithm = codegen.PL
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkGenerated(t, p, 16, 16, 16, 4)
	}
}

func TestGeneratedDB(t *testing.T) {
	for _, sh := range [][2]bool{{true, true}, {false, true}} {
		p := smallParams()
		p.Algorithm = codegen.DB
		p.Kwg = 8
		p.SharedA, p.SharedB = sh[0], sh[1]
		checkGenerated(t, p, 16, 16, 32, 5)
	}
}

func TestGeneratedReshapedLoads(t *testing.T) {
	p := smallParams()
	p.Mwg, p.Nwg, p.Kwg = 16, 16, 8
	p.MdimA, p.NdimB = 8, 2
	checkGenerated(t, p, 32, 32, 16, 6)
}

func TestGeneratedFloat32(t *testing.T) {
	p := smallParams()
	p.Precision = matrix.Single
	p.VectorWidth = 2
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		t.Fatalf("%v\n%s", err, src)
	}
	kern, _ := prog.Kernel(codegen.KernelName)

	m, n, k := 16, 16, 8
	rng := rand.New(rand.NewSource(7))
	a := matrix.New[float32](m, k, matrix.RowMajor)
	b := matrix.New[float32](k, n, matrix.RowMajor)
	c := matrix.New[float32](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	cGen := c.Clone()
	bound, err := kern.Bind(m, n, k, float32(1), float32(0.5), at.Data, bp.Data, cGen.Data)
	if err != nil {
		t.Fatal(err)
	}
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	if err := q.Run(bound, nd); err != nil {
		t.Fatal(err)
	}
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, float32(1), a, b, float32(0.5), want)
	if d := matrix.MaxRelDiff(cGen, want); d > float64(matrix.Tolerance(matrix.Single, k)) {
		t.Errorf("float32 generated kernel differs by %g", d)
	}
}

// The paper's Table II Tahiti configs, functionally, at reduced size.
func TestGeneratedPaperConfig(t *testing.T) {
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 96, Nwg: 32, Kwg: 48,
		MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 2, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	checkGenerated(t, p, 96, 32, 48, 8)
}

// Property test over random small configurations: the generated source,
// executed on the clc VM, matches the reference BLAS for all three
// algorithms.
func TestGeneratedPropertyRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("generated-source property test")
	}
	f := func(algSel, mwiS, nwiS, kwgS, vwS, shSel, stSel, layA, layB uint8, seed int64) bool {
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     2, NdimC: 4,
			Kwi:     2,
			SharedA: shSel&1 != 0,
			SharedB: shSel&2 != 0,
			StrideM: stSel&1 != 0,
			StrideN: stSel&2 != 0,
			LayoutA: []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layA%3],
			LayoutB: []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}[layB%3],
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2]
		p.Kwg = []int{4, 8}[kwgS%2]
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		if err := p.Validate(); err != nil {
			return true
		}
		m, n, k := p.Mwg*2, p.Nwg, p.Kwg*2

		rng := rand.New(rand.NewSource(seed))
		a := matrix.New[float64](m, k, matrix.RowMajor)
		b := matrix.New[float64](k, n, matrix.RowMajor)
		c := matrix.New[float64](m, n, matrix.RowMajor)
		a.FillRandom(rng)
		b.FillRandom(rng)
		c.FillRandom(rng)
		at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
		bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
		cGen := c.Clone()
		runGenerated(t, p, m, n, k, 1.0, at.Data, bp.Data, 1.0, cGen.Data)
		want := c.Clone()
		blas.GEMM(blas.NoTrans, blas.NoTrans, 1.0, a, b, 1.0, want)
		return matrix.MaxRelDiff(cGen, want) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
