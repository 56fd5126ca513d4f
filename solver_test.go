package oclgemm

import (
	"errors"
	"math/rand"
	"testing"
)

func solverForTest(t *testing.T) *Solver {
	t.Helper()
	d, _ := DeviceByID("tahiti")
	p := Params{
		Precision: Double, Algorithm: BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1, SharedB: true,
		LayoutA: LayoutCBL, LayoutB: LayoutCBL,
	}
	s, err := NewSolver(d, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSolverCholeskyEndToEnd(t *testing.T) {
	s := solverForTest(t)
	if s.BlockSize() != 8 {
		t.Errorf("BlockSize = %d", s.BlockSize())
	}
	n := 21
	rng := rand.New(rand.NewSource(31))
	g := NewMatrix[float64](n, n, RowMajor)
	g.FillRandom(rng)
	a := NewMatrix[float64](n, n, RowMajor)
	Reference(NoTrans, Trans, 1.0, g, g, 0.0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	b := NewMatrix[float64](n, 2, RowMajor)
	b.FillRandom(rng)

	f := a.Clone()
	if err := Cholesky(s, f); err != nil {
		t.Fatal(err)
	}
	x := b.Clone()
	if err := CholeskySolve(s, f, x); err != nil {
		t.Fatal(err)
	}
	ax := NewMatrix[float64](n, 2, RowMajor)
	Reference(NoTrans, NoTrans, 1.0, a, x, 0.0, ax)
	if d := MaxRelDiff(ax, b); d > 1e-9 {
		t.Errorf("residual %g", d)
	}
}

func TestSolverTRSMAndSYRK(t *testing.T) {
	s := solverForTest(t)
	n := 12
	rng := rand.New(rand.NewSource(32))
	a := NewMatrix[float64](n, n, RowMajor)
	a.FillRandom(rng)
	for i := 0; i < n; i++ {
		a.Set(i, i, 3+a.At(i, i))
	}
	b := NewMatrix[float64](n, 5, RowMajor)
	b.FillRandom(rng)
	x := b.Clone()
	if err := TRSM[float64](s, Left, Lower, NoTrans, NonUnit, 1.0, a, x); err != nil {
		t.Fatal(err)
	}
	// Check L·x == b on the lower triangle of a.
	for col := 0; col < 5; col++ {
		for i := 0; i < n; i++ {
			var acc float64
			for j := 0; j <= i; j++ {
				acc += float64(a.At(i, j) * x.At(j, col))
			}
			if d := acc - b.At(i, col); d > 1e-10 || d < -1e-10 {
				t.Fatalf("TRSM residual at (%d,%d): %g", i, col, d)
			}
		}
	}

	c := NewMatrix[float64](n, n, RowMajor)
	if err := SYRK[float64](s, Lower, NoTrans, 1.0, b, 0.0, c); err != nil {
		t.Fatal(err)
	}
	if c.At(n-1, 0) == 0 {
		t.Error("SYRK produced no lower triangle")
	}
}

func TestSolverErrors(t *testing.T) {
	s := solverForTest(t)
	bad := NewMatrix[float64](4, 4, RowMajor) // zero matrix: not SPD, singular
	if err := Cholesky(s, bad); !errors.Is(err, ErrNotSPD) {
		t.Errorf("want ErrNotSPD, got %v", err)
	}
	if _, err := LU(s, bad.Clone()); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestPaperKernelsFacade(t *testing.T) {
	db := PaperKernels()
	p, ok, err := ParamsFor(db, "tahiti", Single)
	if err != nil || !ok {
		t.Fatalf("ParamsFor: %v %v", ok, err)
	}
	if p.Mwg != 96 || p.Nwg != 96 || !p.SharedA || !p.SharedB {
		t.Errorf("Tahiti SGEMM paper config wrong: %+v", p)
	}
	if _, ok, _ := ParamsFor(db, "nonexistent", Single); ok {
		t.Error("unknown device must miss")
	}
	// Round trip through a file.
	path := t.TempDir() + "/db.json"
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTuningDB(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Records) != 12 {
		t.Errorf("loaded %d records", len(back.Records))
	}
	// RecordTuneResult integrates with Tune output.
	rec := RecordTuneResult("tahiti", &TuneResult{Params: p, GFlops: 1000, BestN: 2048})
	if rec.Source != "search" || rec.GFlops != 1000 {
		t.Errorf("record wrong: %+v", rec)
	}
}
