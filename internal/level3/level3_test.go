package level3

import (
	"errors"
	"math/rand"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// testEngine uses a small kernel so blocked paths (diagonal blocks,
// panels, trailing updates) are all exercised at modest sizes.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	e, err := New(device.Tahiti(), p)
	if err != nil {
		t.Fatal(err)
	}
	if e.NB != 8 {
		t.Fatalf("NB = %d, want 8", e.NB)
	}
	return e
}

func randGeneral(rows, cols int, seed int64) *matrix.Matrix[float64] {
	m := matrix.New[float64](rows, cols, matrix.RowMajor)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

// randSPD builds a well-conditioned SPD matrix A = G·Gᵀ + n·I.
func randSPD(n int, seed int64) *matrix.Matrix[float64] {
	g := randGeneral(n, n, seed)
	a := matrix.New[float64](n, n, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.Trans, 1.0, g, g, 0.0, a)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// naive full symmetric/triangular helpers for references.

func symFull(a *matrix.Matrix[float64], uplo Uplo) *matrix.Matrix[float64] {
	n := a.Rows
	out := matrix.New[float64](n, n, matrix.RowMajor)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			src := a.At(i, j)
			if (uplo == Lower && j > i) || (uplo == Upper && j < i) {
				src = a.At(j, i)
			}
			out.Set(i, j, src)
		}
	}
	return out
}

func triFull(a *matrix.Matrix[float64], uplo Uplo, diag Diag) *matrix.Matrix[float64] {
	n := a.Rows
	out := matrix.New[float64](n, n, matrix.RowMajor)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				if diag == Unit {
					out.Set(i, j, 1)
				} else {
					out.Set(i, j, a.At(i, j))
				}
			case (uplo == Lower && j < i) || (uplo == Upper && j > i):
				out.Set(i, j, a.At(i, j))
			}
		}
	}
	return out
}

func lowerDiff(got, want *matrix.Matrix[float64]) float64 {
	worst := 0.0
	for i := 0; i < got.Rows; i++ {
		for j := 0; j <= i; j++ {
			d := got.At(i, j) - want.At(i, j)
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestSYRK(t *testing.T) {
	e := testEngine(t)
	for _, uplo := range []Uplo{Lower, Upper} {
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			n, k := 20, 13
			var a *matrix.Matrix[float64]
			if trans == blas.Trans {
				a = randGeneral(k, n, 1)
			} else {
				a = randGeneral(n, k, 1)
			}
			c := randGeneral(n, n, 2)
			orig := c.Clone()
			want := c.Clone()
			// Reference: full GEMM, then compare the triangle only.
			if trans == blas.Trans {
				blas.GEMM(blas.Trans, blas.NoTrans, 0.5, a, a, -1.5, want)
			} else {
				blas.GEMM(blas.NoTrans, blas.Trans, 0.5, a, a, -1.5, want)
			}
			if err := SYRK(e, uplo, trans, 0.5, a, -1.5, c); err != nil {
				t.Fatalf("uplo=%v trans=%v: %v", uplo, trans, err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					inTri := (uplo == Lower && j <= i) || (uplo == Upper && j >= i)
					if inTri {
						if d := c.At(i, j) - want.At(i, j); d > 1e-12 || d < -1e-12 {
							t.Fatalf("uplo=%v trans=%v: triangle mismatch at (%d,%d)", uplo, trans, i, j)
						}
					} else if c.At(i, j) != orig.At(i, j) {
						t.Fatalf("uplo=%v trans=%v: (%d,%d) outside the triangle modified", uplo, trans, i, j)
					}
				}
			}
		}
	}
}

func TestSYRKLeavesOppositeTriangleUntouched(t *testing.T) {
	e := testEngine(t)
	n, k := 17, 9
	a := randGeneral(n, k, 3)
	c := randGeneral(n, n, 4)
	orig := c.Clone()
	if err := SYRK(e, Lower, blas.NoTrans, 1.0, a, 0.0, c); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c.At(i, j) != orig.At(i, j) {
				t.Fatalf("upper triangle modified at (%d,%d)", i, j)
			}
		}
	}
}

func TestSYMM(t *testing.T) {
	e := testEngine(t)
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			m, n := 19, 14
			na := m
			if side == Right {
				na = n
			}
			a := randGeneral(na, na, 5)
			b := randGeneral(m, n, 6)
			c := randGeneral(m, n, 7)
			want := c.Clone()
			full := symFull(a, uplo)
			if side == Left {
				blas.GEMM(blas.NoTrans, blas.NoTrans, 1.25, full, b, 0.5, want)
			} else {
				blas.GEMM(blas.NoTrans, blas.NoTrans, 1.25, b, full, 0.5, want)
			}
			if err := SYMM(e, side, uplo, 1.25, a, b, 0.5, c); err != nil {
				t.Fatalf("side=%v uplo=%v: %v", side, uplo, err)
			}
			if d := matrix.MaxRelDiff(c, want); d > 1e-12 {
				t.Errorf("side=%v uplo=%v: diff %g", side, uplo, d)
			}
		}
	}
}

func TestTRMM(t *testing.T) {
	e := testEngine(t)
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 18, 11
					na := m
					if side == Right {
						na = n
					}
					a := randGeneral(na, na, 8)
					b := randGeneral(m, n, 9)
					want := matrix.New[float64](m, n, matrix.RowMajor)
					full := triFull(a, uplo, diag)
					if side == Left {
						blas.GEMM(trans, blas.NoTrans, 0.75, full, b, 0.0, want)
					} else {
						blas.GEMM(blas.NoTrans, trans, 0.75, b, full, 0.0, want)
					}
					got := b.Clone()
					if err := TRMM(e, side, uplo, trans, diag, 0.75, a, got); err != nil {
						t.Fatalf("side=%v uplo=%v trans=%v diag=%v: %v", side, uplo, trans, diag, err)
					}
					if d := matrix.MaxRelDiff(got, want); d > 1e-12 {
						t.Errorf("side=%v uplo=%v trans=%v diag=%v: diff %g", side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

func TestTRSM(t *testing.T) {
	e := testEngine(t)
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Lower, Upper} {
			for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 16, 13
					na := m
					if side == Right {
						na = n
					}
					// Well-conditioned triangular factor: dominant diagonal.
					a := randGeneral(na, na, 10)
					for i := 0; i < na; i++ {
						a.Set(i, i, 4+a.At(i, i))
					}
					b := randGeneral(m, n, 11)
					x := b.Clone()
					if err := TRSM(e, side, uplo, trans, diag, 2.0, a, x); err != nil {
						t.Fatalf("side=%v uplo=%v trans=%v diag=%v: %v", side, uplo, trans, diag, err)
					}
					// Verify op(A)·X == 2B (or X·op(A) == 2B).
					check := matrix.New[float64](m, n, matrix.RowMajor)
					full := triFull(a, uplo, diag)
					if side == Left {
						blas.GEMM(trans, blas.NoTrans, 1.0, full, x, 0.0, check)
					} else {
						blas.GEMM(blas.NoTrans, trans, 1.0, x, full, 0.0, check)
					}
					want := b.Clone()
					scale(want, 2.0)
					if d := matrix.MaxRelDiff(check, want); d > 1e-10 {
						t.Errorf("side=%v uplo=%v trans=%v diag=%v: residual %g", side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

func TestCholesky(t *testing.T) {
	e := testEngine(t)
	n := 29 // not a block multiple: exercises ragged blocks
	a := randSPD(n, 12)
	orig := a.Clone()
	if err := Cholesky(e, a); err != nil {
		t.Fatal(err)
	}
	// L·Lᵀ must reproduce the original (lower triangle comparison).
	l := triFull(a, Lower, NonUnit)
	recon := matrix.New[float64](n, n, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.Trans, 1.0, l, l, 0.0, recon)
	if d := lowerDiff(recon, orig); d > 1e-9 {
		t.Errorf("L·Lᵀ differs from A by %g", d)
	}

	// Solve A·X = B through the factor and check the residual.
	bmat := randGeneral(n, 5, 13)
	x := bmat.Clone()
	if err := CholeskySolve(e, a, x); err != nil {
		t.Fatal(err)
	}
	resid := matrix.New[float64](n, 5, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.0, orig, x, 0.0, resid)
	if d := matrix.MaxRelDiff(resid, bmat); d > 1e-9 {
		t.Errorf("Cholesky solve residual %g", d)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	e := testEngine(t)
	a := matrix.New[float64](6, 6, matrix.RowMajor)
	for i := 0; i < 6; i++ {
		a.Set(i, i, -1)
	}
	if err := Cholesky(e, a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("want ErrNotSPD, got %v", err)
	}
}

func TestLU(t *testing.T) {
	e := testEngine(t)
	n := 27
	a := randGeneral(n, n, 14)
	orig := a.Clone()
	piv, err := LU(e, a)
	if err != nil {
		t.Fatal(err)
	}
	// P·A == L·U.
	l := triFull(a, Lower, Unit)
	u := triFull(a, Upper, NonUnit)
	lu := matrix.New[float64](n, n, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.0, l, u, 0.0, lu)
	pa := orig.Clone()
	for i, p := range piv {
		if p != i {
			for c := 0; c < n; c++ {
				vi, vp := pa.At(i, c), pa.At(p, c)
				pa.Set(i, c, vp)
				pa.Set(p, c, vi)
			}
		}
	}
	if d := matrix.MaxRelDiff(lu, pa); d > 1e-9 {
		t.Errorf("L·U differs from P·A by %g", d)
	}

	// Solve.
	bmat := randGeneral(n, 4, 15)
	x := bmat.Clone()
	if err := LUSolve(e, a, piv, x); err != nil {
		t.Fatal(err)
	}
	resid := matrix.New[float64](n, 4, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.0, orig, x, 0.0, resid)
	if d := matrix.MaxRelDiff(resid, bmat); d > 1e-8 {
		t.Errorf("LU solve residual %g", d)
	}
}

func TestLUSingular(t *testing.T) {
	e := testEngine(t)
	a := matrix.New[float64](5, 5, matrix.RowMajor) // all zeros
	if _, err := LU(e, a); !errors.Is(err, ErrSingular) {
		t.Errorf("want ErrSingular, got %v", err)
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	e := testEngine(t)
	// Zero in the (0,0) position: fails without pivoting.
	n := 10
	a := randGeneral(n, n, 16)
	a.Set(0, 0, 0)
	orig := a.Clone()
	piv, err := LU(e, a)
	if err != nil {
		t.Fatal(err)
	}
	if piv[0] == 0 {
		t.Error("pivoting should have swapped row 0")
	}
	bmat := randGeneral(n, 1, 17)
	x := bmat.Clone()
	if err := LUSolve(e, a, piv, x); err != nil {
		t.Fatal(err)
	}
	resid := matrix.New[float64](n, 1, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1.0, orig, x, 0.0, resid)
	if d := matrix.MaxRelDiff(resid, bmat); d > 1e-8 {
		t.Errorf("pivoted solve residual %g", d)
	}
}

func TestDimensionErrors(t *testing.T) {
	e := testEngine(t)
	sq := randGeneral(6, 6, 18)
	rect := randGeneral(6, 4, 19)
	if err := SYRK(e, Lower, blas.NoTrans, 1.0, sq, 0.0, rect); err == nil {
		t.Error("SYRK must reject non-square C")
	}
	if err := SYMM(e, Left, Lower, 1.0, rect, sq, 0.0, sq); err == nil {
		t.Error("SYMM must reject non-square A")
	}
	if err := TRMM(e, Left, Lower, blas.NoTrans, NonUnit, 1.0, rect, sq); err == nil {
		t.Error("TRMM must reject non-square A")
	}
	if err := TRSM(e, Right, Upper, blas.NoTrans, NonUnit, 1.0, rect, sq); err == nil {
		t.Error("TRSM must reject non-square A")
	}
	if err := Cholesky(e, rect); err == nil {
		t.Error("Cholesky must reject non-square A")
	}
}
