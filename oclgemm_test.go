package oclgemm

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

func TestDevicesCatalog(t *testing.T) {
	devs := Devices()
	if len(devs) != 6 {
		t.Fatalf("Devices() = %d, want 6", len(devs))
	}
	d, err := DeviceByID("tahiti")
	if err != nil || d.CodeName != "Tahiti" {
		t.Fatalf("DeviceByID: %v %v", d, err)
	}
	if _, err := DeviceByID("bogus"); err == nil {
		t.Error("unknown device must fail")
	}
}

func paperTahitiSGEMM() Params {
	return Params{
		Precision: Single, Algorithm: BA,
		Mwg: 96, Nwg: 96, Kwg: 16,
		MdimC: 16, NdimC: 16, MdimA: 16, NdimB: 16,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: LayoutCBL, LayoutB: LayoutCBL,
	}
}

func TestGenerateSourceFacade(t *testing.T) {
	src, err := GenerateSource(paperTahitiSGEMM())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "__kernel void gemm_atb") {
		t.Error("generated source missing kernel")
	}
}

func TestKernelGFlopsFacade(t *testing.T) {
	d, _ := DeviceByID("tahiti")
	gf, err := KernelGFlops(d, paperTahitiSGEMM(), 4032, 4032, 4032)
	if err != nil {
		t.Fatal(err)
	}
	// Paper Table II: 3047 GFlop/s.
	if gf < 2700 || gf > 3400 {
		t.Errorf("modeled %f GFlop/s, paper says 3047", gf)
	}
}

func TestTuneAndRunEndToEnd(t *testing.T) {
	d, _ := DeviceByID("fermi")
	res, err := Tune(TuneOptions{Device: d, Precision: Double, MaxCandidates: 2500, MaxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if res.GFlops <= 0 || len(res.Curve) == 0 || res.Candidates <= 0 {
		t.Fatalf("degenerate tune result: %+v", res)
	}
	// Candidates counts the enumerated sweep input; Measured counts the
	// variants whose evaluation was actually attempted.
	if res.Measured <= 0 || res.Measured > res.Candidates {
		t.Fatalf("measured accounting: Measured=%d Candidates=%d", res.Measured, res.Candidates)
	}
	eff := res.GFlops / d.PeakGFlops(Double)
	if eff < 0.3 || eff > 1.1 {
		t.Errorf("Fermi DGEMM efficiency %.2f implausible", eff)
	}

	// Run the tuned kernel functionally on a small problem.
	g, err := NewGEMM(d, res.Params)
	if err != nil {
		t.Fatal(err)
	}
	m, n, k := 33, 21, 17
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix[float64](m, k, ColMajor)
	b := NewMatrix[float64](n, k, ColMajor) // for op(B) = Bᵀ
	c := NewMatrix[float64](m, n, ColMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	Reference(NoTrans, Trans, 2.0, a, b, 0.5, want)
	if err := g.Run(NoTrans, Trans, 2.0, a, b, 0.5, c); err != nil {
		t.Fatal(err)
	}
	if diff := MaxRelDiff(c, want); diff > Tolerance(Double, k) {
		t.Errorf("tuned kernel wrong by %g", diff)
	}
}

func TestRunSingleFacade(t *testing.T) {
	d, _ := DeviceByID("tahiti")
	p := Params{
		Precision: Single, Algorithm: BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 2, SharedB: true,
		LayoutA: LayoutCBL, LayoutB: LayoutCBL,
	}
	g, err := NewGEMM(d, p)
	if err != nil {
		t.Fatal(err)
	}
	if g.Params().Mwg != 8 || g.Device().ID != "tahiti" {
		t.Error("accessors wrong")
	}
	rng := rand.New(rand.NewSource(2))
	a := NewMatrix[float32](10, 6, RowMajor)
	b := NewMatrix[float32](6, 7, RowMajor)
	c := NewMatrix[float32](10, 7, RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	want := c.Clone()
	Reference(NoTrans, NoTrans, float32(1), a, b, float32(0), want)
	if err := g.RunSingle(NoTrans, NoTrans, 1, a, b, 0, c); err != nil {
		t.Fatal(err)
	}
	if diff := MaxRelDiff(c, want); diff > Tolerance(Single, 6) {
		t.Errorf("SGEMM facade wrong by %g", diff)
	}
	gf, err := g.ModelGFlops(1024, 1024, 1024)
	if err != nil || gf <= 0 {
		t.Errorf("ModelGFlops: %f, %v", gf, err)
	}
}

func TestTuneRequiresDevice(t *testing.T) {
	if _, err := Tune(TuneOptions{}); err == nil {
		t.Error("Tune without device must fail")
	}
}

func TestTuneOrFallbackUsesPublishedKernel(t *testing.T) {
	dev, err := DeviceByID("tahiti")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the search is dead on arrival: forces the fallback path
	opts := TuneOptions{Device: dev, Precision: Single, MaxCandidates: 500, Context: ctx}

	if _, err := Tune(opts); err == nil {
		t.Fatal("cancelled Tune must fail")
	}
	res, err := TuneOrFallback(opts)
	if err != nil {
		t.Fatalf("TuneOrFallback must degrade, not fail: %v", err)
	}
	if res.Fallback == "" {
		t.Error("fallback result must report the degradation")
	}
	rec, ok := PaperKernels().Get("tahiti", Single)
	if !ok {
		t.Fatal("paper DB misses tahiti single")
	}
	want, err := rec.Params()
	if err != nil {
		t.Fatal(err)
	}
	if res.Params != want {
		t.Errorf("fallback must return the published Table II kernel:\n%+v\n%+v", res.Params, want)
	}
	if res.GFlops != rec.GFlops {
		t.Errorf("fallback GFlops = %v, want published %v", res.GFlops, rec.GFlops)
	}

	// An uncatalogued device degrades to the nearest same-kind device.
	clone := *dev
	clone.ID = "tahiti-custom"
	opts.Device = &clone
	res, err = TuneOrFallback(opts)
	if err != nil {
		t.Fatalf("nearest-device fallback must work: %v", err)
	}
	if !strings.Contains(res.Fallback, "nearest-device") {
		t.Errorf("uncatalogued device must use the nearest-device path: %q", res.Fallback)
	}
}

func TestTuneOrFallbackPassesThroughSuccess(t *testing.T) {
	dev, err := DeviceByID("tahiti")
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneOrFallback(TuneOptions{Device: dev, Precision: Single, MaxCandidates: 400})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "" {
		t.Errorf("successful search must not be marked as fallback: %q", res.Fallback)
	}
	if res.GFlops <= 0 {
		t.Error("successful search must carry a measured performance")
	}
}

// TestPaperTableIIRoutineMatchesBLAS runs each of the paper's 12 Table
// II kernels through the public routine at 192³, cold (plan build and
// pack) and then warm, and holds every C element to the serial
// internal/blas reference within matrix.Tolerance.
func TestPaperTableIIRoutineMatchesBLAS(t *testing.T) {
	const size = 192
	recs := PaperKernels().Records
	if len(recs) != 12 {
		t.Fatalf("paper Table II has %d kernels, want 12", len(recs))
	}
	for _, rec := range recs {
		p, err := rec.Params()
		if err != nil {
			t.Fatal(err)
		}
		d, err := DeviceByID(rec.Device)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(rec.Device+"/"+p.Precision.GEMMName(), func(t *testing.T) {
			if p.Precision == Single {
				checkRoutineAgainstBLAS[float32](t, d, p, size)
			} else {
				checkRoutineAgainstBLAS[float64](t, d, p, size)
			}
		})
	}
}

func checkRoutineAgainstBLAS[T Scalar](t *testing.T, d *Device, p Params, size int) {
	t.Helper()
	g, err := NewGEMM(d, p)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix[T](size, size, RowMajor)
	b := NewMatrix[T](size, size, RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	want := NewMatrix[T](size, size, RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, T(1), a, b, T(0), want)
	tol := matrix.Tolerance(p.Precision, size)
	for _, call := range []string{"cold", "warm"} {
		c := NewMatrix[T](size, size, RowMajor)
		if err := Run(g, NoTrans, NoTrans, T(1), a, b, T(0), c); err != nil {
			t.Fatalf("%s call: %v", call, err)
		}
		if diff := matrix.MaxRelDiff(c, want); diff > tol {
			t.Errorf("%s call: max rel diff %.3g vs internal/blas exceeds %.3g", call, diff, tol)
		}
	}
}
