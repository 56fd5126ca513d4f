package blas

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"oclgemm/internal/matrix"
)

func randomMat(rows, cols int, seed int64) *matrix.Matrix[float64] {
	m := matrix.New[float64](rows, cols, matrix.RowMajor)
	m.FillRandom(rand.New(rand.NewSource(seed)))
	return m
}

func TestGEMMTypeStrings(t *testing.T) {
	want := []string{"NN", "NT", "TN", "TT"}
	for i, g := range GEMMTypes {
		if g.String() != want[i] {
			t.Errorf("GEMMTypes[%d] = %s, want %s", i, g, want[i])
		}
		back, err := ParseGEMMType(want[i])
		if err != nil || back != g {
			t.Errorf("ParseGEMMType(%s) failed: %v %v", want[i], back, err)
		}
	}
	if _, err := ParseGEMMType("XX"); err == nil {
		t.Error("ParseGEMMType should reject XX")
	}
}

// 2x2 hand-checked case.
func TestGEMMKnownValues(t *testing.T) {
	a := matrix.FromSlice(2, 2, matrix.RowMajor, []float64{1, 2, 3, 4})
	b := matrix.FromSlice(2, 2, matrix.RowMajor, []float64{5, 6, 7, 8})
	c := matrix.New[float64](2, 2, matrix.RowMajor)
	GEMM(NoTrans, NoTrans, 1, a, b, 0, c)
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Errorf("C[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestGEMMAlphaBeta(t *testing.T) {
	a := matrix.FromSlice(1, 1, matrix.RowMajor, []float64{3})
	b := matrix.FromSlice(1, 1, matrix.RowMajor, []float64{4})
	c := matrix.FromSlice(1, 1, matrix.RowMajor, []float64{10})
	GEMM(NoTrans, NoTrans, 2, a, b, 0.5, c)
	if c.Data[0] != 2*12+0.5*10 {
		t.Errorf("alpha/beta wrong: got %v, want 29", c.Data[0])
	}
}

func TestGEMMTransposeTypes(t *testing.T) {
	// For each type, compare against explicit pre-transposed naive NN.
	m, n, k := 7, 5, 9
	for _, g := range GEMMTypes {
		var a, b *matrix.Matrix[float64]
		if g.TransA == Trans {
			a = randomMat(k, m, 1)
		} else {
			a = randomMat(m, k, 1)
		}
		if g.TransB == Trans {
			b = randomMat(n, k, 2)
		} else {
			b = randomMat(k, n, 2)
		}
		c := randomMat(m, n, 3)
		want := c.Clone()
		GEMM(g.TransA, g.TransB, 1.5, a, b, 0.25, c)

		aEff := a
		if g.TransA == Trans {
			aEff = a.Transpose()
		}
		bEff := b
		if g.TransB == Trans {
			bEff = b.Transpose()
		}
		GEMM(NoTrans, NoTrans, 1.5, aEff, bEff, 0.25, want)
		if d := matrix.MaxRelDiff(c, want); d > 1e-14 {
			t.Errorf("%s: diff %g vs pre-transposed NN", g, d)
		}
	}
}

func TestGEMMDimensionPanics(t *testing.T) {
	a := matrix.New[float64](2, 3, matrix.RowMajor)
	b := matrix.New[float64](4, 2, matrix.RowMajor) // inner mismatch
	c := matrix.New[float64](2, 2, matrix.RowMajor)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on inner mismatch")
			}
		}()
		GEMM(NoTrans, NoTrans, 1, a, b, 0, c)
	}()
	b2 := matrix.New[float64](3, 2, matrix.RowMajor)
	cBad := matrix.New[float64](3, 2, matrix.RowMajor)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic on C shape mismatch")
			}
		}()
		GEMM(NoTrans, NoTrans, 1, a, b2, 0, cBad)
	}()
}

// randOperands returns op(A), op(B) and C operands of an m×n×k
// product of type g, filled from fixed seeds.
func randOperands[T matrix.Scalar](g GEMMType, m, n, k int) (a, b, c *matrix.Matrix[T]) {
	rng := rand.New(rand.NewSource(int64(m*10007 + n*101 + k)))
	ar, ac := m, k
	if g.TransA == Trans {
		ar, ac = k, m
	}
	br, bc := k, n
	if g.TransB == Trans {
		br, bc = n, k
	}
	a = matrix.New[T](ar, ac, matrix.RowMajor)
	b = matrix.New[T](br, bc, matrix.RowMajor)
	c = matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	return a, b, c
}

// sameBits reports the first element where got and want differ.
func sameBits[T matrix.Scalar](t *testing.T, what string, got, want *matrix.Matrix[T]) {
	t.Helper()
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			if x, y := got.At(i, j), want.At(i, j); x != y {
				t.Fatalf("%s: C(%d,%d) = %v, GEMM gives %v", what, i, j, x, y)
			}
		}
	}
}

// matchesGEMM checks that f gives GEMM's result bit for bit on every
// GEMM type, at a shape with partial panels.
func matchesGEMM[T matrix.Scalar](t *testing.T, name string, f func(Transpose, Transpose, T, *matrix.Matrix[T], *matrix.Matrix[T], T, *matrix.Matrix[T])) {
	t.Helper()
	for _, g := range GEMMTypes {
		a, b, c := randOperands[T](g, 71, 65, 130)
		want := c.Clone()
		GEMM(g.TransA, g.TransB, 0.7, a, b, 1.3, want)
		got := c.Clone()
		f(g.TransA, g.TransB, 0.7, a, b, 1.3, got)
		sameBits(t, g.String()+" "+name, got, want)
	}
}

func TestBlockedMatchesNaive(t *testing.T) {
	matchesGEMM(t, "GEMMBlocked", GEMMBlocked[float32])
	matchesGEMM(t, "GEMMBlocked", GEMMBlocked[float64])
}

// TestParallelMatchesNaive: GEMMParallel's row panels give GEMM's
// result bit for bit whatever the worker count.
func TestParallelMatchesNaive(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		name := fmt.Sprintf("GEMMParallel GOMAXPROCS %d", procs)
		matchesGEMM(t, name, GEMMParallel[float32])
		matchesGEMM(t, name, GEMMParallel[float64])
	}
}

// GEMMParallel's one-worker path (m = 1 here) keeps GEMM's float64
// accumulation: a float32 row product is bit-identical to GEMM's.
func TestParallelOneRowMatchesGEMM(t *testing.T) {
	m, n, k := 1, 40, 300
	rng := rand.New(rand.NewSource(12))
	a := matrix.New[float32](m, k, matrix.RowMajor)
	b := matrix.New[float32](k, n, matrix.RowMajor)
	c1 := matrix.New[float32](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c1.FillRandom(rng)
	c2 := c1.Clone()
	GEMM(NoTrans, NoTrans, 1.5, a, b, 0.5, c1)
	GEMMParallel(NoTrans, NoTrans, 1.5, a, b, 0.5, c2)
	for j := range n {
		if x, y := c1.At(0, j), c2.At(0, j); x != y {
			t.Errorf("C[0][%d]: GEMMParallel %v, GEMM %v", j, y, x)
		}
	}
}

func TestGEMMSingle(t *testing.T) {
	a := matrix.New[float32](8, 8, matrix.RowMajor)
	b := matrix.New[float32](8, 8, matrix.RowMajor)
	c := matrix.New[float32](8, 8, matrix.RowMajor)
	a.FillRandom(rand.New(rand.NewSource(10)))
	b.FillRandom(rand.New(rand.NewSource(11)))
	GEMM(NoTrans, NoTrans, 1, a, b, 0, c)
	// Identity check: A*I = A.
	id := matrix.New[float32](8, 8, matrix.RowMajor)
	for i := 0; i < 8; i++ {
		id.Set(i, i, 1)
	}
	c2 := matrix.New[float32](8, 8, matrix.RowMajor)
	GEMM(NoTrans, NoTrans, 1, a, id, 0, c2)
	if d := matrix.MaxRelDiff(a, c2); d > 1e-6 {
		t.Errorf("A*I != A, diff %g", d)
	}
}

func TestFlopCount(t *testing.T) {
	if FlopCount(10, 20, 30) != 12000 {
		t.Errorf("FlopCount wrong: %v", FlopCount(10, 20, 30))
	}
}

// Property: GEMM is linear in alpha — C(2a) - C(0 via beta=1 trick)
// equals 2*(C(a) - base). We verify alpha-scaling on a zero-beta call.
func TestGEMMAlphaLinearityProperty(t *testing.T) {
	f := func(seed int64, alphaBits uint8) bool {
		alpha := float64(alphaBits%7) + 0.5
		m, n, k := 6, 5, 4
		a := randomMat(m, k, seed)
		b := randomMat(k, n, seed+1)
		c1 := matrix.New[float64](m, n, matrix.RowMajor)
		c2 := matrix.New[float64](m, n, matrix.RowMajor)
		GEMM(NoTrans, NoTrans, 1, a, b, 0, c1)
		GEMM(NoTrans, NoTrans, alpha, a, b, 0, c2)
		for i := range c1.Data {
			if diff := c2.Data[i] - float64(alpha*c1.Data[i]); diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func opAt[T matrix.Scalar](x *matrix.Matrix[T], t Transpose, r, c int) T {
	if t == Trans {
		return x.At(c, r)
	}
	return x.At(r, c)
}

// indexedGEMM is GEMM's element-indexed triple loop, kept as the
// oracle for the stepped walk.
func indexedGEMM[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	m, n, k := checkDims(ta, tb, a, b, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += float64(float64(opAt(a, ta, i, p)) * float64(opAt(b, tb, p, j)))
			}
			c.Set(i, j, T(float64(float64(alpha)*acc)+float64(float64(beta)*float64(c.At(i, j)))))
		}
	}
}

// stridedView returns a rows×cols view at (1, 2) of a larger random
// matrix, so its stride is not minimal and its Data starts mid-slice.
func stridedView[T matrix.Scalar](rows, cols int, order matrix.Order, seed int64) *matrix.Matrix[T] {
	parent := matrix.New[T](rows+3, cols+5, order)
	parent.FillRandom(rand.New(rand.NewSource(seed)))
	return parent.View(1, 2, rows, cols)
}

func checkSteppedGEMM[T matrix.Scalar](t *testing.T) {
	const m, n, k = 7, 5, 9
	orders := []matrix.Order{matrix.RowMajor, matrix.ColMajor}
	for _, g := range GEMMTypes {
		for _, oa := range orders {
			for _, ob := range orders {
				for _, oc := range orders {
					ar, ac := m, k
					if g.TransA == Trans {
						ar, ac = k, m
					}
					br, bc := k, n
					if g.TransB == Trans {
						br, bc = n, k
					}
					a := stridedView[T](ar, ac, oa, 1)
					b := stridedView[T](br, bc, ob, 2)
					c := stridedView[T](m, n, oc, 3)
					want := c.Clone()
					indexedGEMM(g.TransA, g.TransB, 1.25, a, b, -0.75, want)
					GEMM(g.TransA, g.TransB, 1.25, a, b, -0.75, c)
					for i := 0; i < m; i++ {
						for j := 0; j < n; j++ {
							if got, w := c.At(i, j), want.At(i, j); got != w {
								t.Fatalf("%s orders %v/%v/%v: C(%d,%d) = %v, want %v", g, oa, ob, oc, i, j, got, w)
							}
						}
					}
				}
			}
		}
	}
}

// TestGEMMSteppedMatchesIndexed: GEMM's stepped walk is bit-identical
// to indexing every element, over both orders of each operand, every
// transpose pair, both precisions and strided views.
func TestGEMMSteppedMatchesIndexed(t *testing.T) {
	checkSteppedGEMM[float32](t)
	checkSteppedGEMM[float64](t)
}

// syrkMatchesGEMM checks SYRK against GEMM(op(A), op(A)ᵀ): equal bit
// for bit on the uplo triangle, and the other triangle untouched.
func syrkMatchesGEMM[T matrix.Scalar](t *testing.T) {
	const n, k = 19, 23
	for _, upper := range []bool{false, true} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			g := GEMMType{trans, Trans}
			if trans == Trans {
				g.TransB = NoTrans
			}
			a, _, c := randOperands[T](g, n, n, k)
			full := c.Clone()
			GEMM(g.TransA, g.TransB, 1.25, a, a, -0.5, full)
			got := c.Clone()
			SYRK(upper, trans, 1.25, a, -0.5, got)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					want := c.At(i, j)
					if (upper && j >= i) || (!upper && j <= i) {
						want = full.At(i, j)
					}
					if x := got.At(i, j); x != want {
						t.Fatalf("upper=%v trans=%v: C(%d,%d) = %v, want %v", upper, trans, i, j, x, want)
					}
				}
			}
		}
	}
}

func TestSYRKMatchesGEMMTriangle(t *testing.T) {
	syrkMatchesGEMM[float32](t)
	syrkMatchesGEMM[float64](t)
}

// TestEmptyShapes: m, n or k of 0 panics nowhere, and k = 0 leaves
// β·C.
func TestEmptyShapes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(2)
	gemms := map[string]func(Transpose, Transpose, float64, *matrix.Matrix[float64], *matrix.Matrix[float64], float64, *matrix.Matrix[float64]){
		"GEMM":         GEMM[float64],
		"GEMMParallel": GEMMParallel[float64],
		"GEMMBlocked":  GEMMBlocked[float64],
	}
	for _, s := range []struct{ m, n, k int }{{0, 5, 4}, {5, 0, 4}, {5, 4, 0}, {0, 0, 0}} {
		for name, f := range gemms {
			a, b, c := randOperands[float64](GEMMTypes[0], s.m, s.n, s.k)
			got := c.Clone()
			f(NoTrans, NoTrans, 2, a, b, 0.5, got)
			for i := range c.Data {
				if want := 0.5 * c.Data[i]; got.Data[i] != want {
					t.Fatalf("%s %dx%dx%d: C[%d] = %v, want β·C = %v", name, s.m, s.n, s.k, i, got.Data[i], want)
				}
			}
		}
	}
	for _, n := range []int{0, 3} {
		a := matrix.New[float64](n, 0, matrix.RowMajor)
		c := randomMat(n, n, 1)
		got := c.Clone()
		SYRK(true, NoTrans, 2, a, 0.5, got)
		SYRK(false, Trans, 2, a.Transpose(), 1, got)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := c.At(i, j)
				if j >= i {
					want *= 0.5
				}
				if x := got.At(i, j); x != want {
					t.Fatalf("SYRK n=%d k=0: C(%d,%d) = %v, want %v", n, i, j, x, want)
				}
			}
		}
	}
}
