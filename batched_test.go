package oclgemm

// Public-API coverage of strided-batched execution: property tests
// (testing/quick) that GEMMStridedBatched is bit-identical to looping
// single GEMMs across shapes, strides (including broadcast), layouts
// and precisions, on both the single-engine and the pool paths.

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// testBatchParams is a small kernel so padded shapes stay modest and
// the quick iterations are fast.
func testBatchParams(prec Precision) Params {
	return Params{
		Precision: prec, Algorithm: BA,
		Mwg: 8, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: LayoutCBL, LayoutB: LayoutCBL,
	}
}

func testBatchGEMM(t *testing.T, prec Precision) *GEMM {
	t.Helper()
	d, err := DeviceByID("tahiti")
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGEMM(d, testBatchParams(prec))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	return g
}

// randBatch derives a random but valid strided batch from a seed:
// shape in [1, 20], count in [1, 6], strides at or above the item
// size, occasional zero strides broadcasting A or B, all four
// transpose combinations, both storage orders, beta zero or not.
func randBatch[T Scalar](seed int64) *StridedBatch[T] {
	rng := rand.New(rand.NewSource(seed))
	dim := func() int { return 1 + rng.Intn(20) }
	sb := &StridedBatch[T]{
		M: dim(), N: dim(), K: dim(),
		Count: 1 + rng.Intn(6),
		Alpha: T(float64(rng.Float64())*2 - 1),
		Order: RowMajor,
	}
	if rng.Intn(2) == 0 {
		sb.Order = ColMajor
	}
	if rng.Intn(2) == 0 {
		sb.TransA = Trans
	}
	if rng.Intn(2) == 0 {
		sb.TransB = Trans
	}
	if rng.Intn(2) == 0 {
		sb.Beta = T(float64(rng.Float64())*2 - 1)
	}
	na, nb, nc := sb.M*sb.K, sb.K*sb.N, sb.M*sb.N
	stride := func(elems int) int { return elems + rng.Intn(3)*5 }
	sb.StrideA, sb.StrideB, sb.StrideC = stride(na), stride(nb), stride(nc)
	if rng.Intn(4) == 0 {
		sb.StrideA = 0 // broadcast A
	}
	if rng.Intn(4) == 0 {
		sb.StrideB = 0 // broadcast B
	}
	fill := func(stride, elems int) []T {
		n := elems
		if stride > 0 {
			n = (sb.Count-1)*stride + elems
		}
		out := make([]T, n)
		for i := range out {
			out[i] = T(float64(rng.Float64())*2 - 1)
		}
		return out
	}
	sb.A = fill(sb.StrideA, na)
	sb.B = fill(sb.StrideB, nb)
	sb.C = fill(sb.StrideC, nc)
	return sb
}

// itemViews rebuilds the per-item operand matrices of a batch exactly
// as the subsystem defines them — an independent reimplementation the
// oracle loop runs on.
func itemViews[T Scalar](sb *StridedBatch[T], cSlab []T, i int) (a, b, c *Matrix[T]) {
	na, nb, nc := sb.M*sb.K, sb.K*sb.N, sb.M*sb.N
	ar, ac := sb.M, sb.K
	if sb.TransA == Trans {
		ar, ac = ac, ar
	}
	br, bc := sb.K, sb.N
	if sb.TransB == Trans {
		br, bc = bc, br
	}
	wrap := func(rows, cols int, data []T) *Matrix[T] {
		m := NewMatrix[T](rows, cols, sb.Order)
		copy(m.Data, data)
		return m
	}
	a = wrap(ar, ac, sb.A[i*sb.StrideA:i*sb.StrideA+na])
	b = wrap(br, bc, sb.B[i*sb.StrideB:i*sb.StrideB+nb])
	c = wrap(sb.M, sb.N, cSlab[i*sb.StrideC:i*sb.StrideC+nc])
	return a, b, c
}

// checkBatchedVsLoop runs one batch through exec and the same items
// one-by-one through loop, requiring bit-identical C slabs.
func checkBatchedVsLoop[T Scalar](t *testing.T, seed int64,
	exec func(sb *StridedBatch[T]) error,
	loop func(ta, tb Transpose, alpha T, a, b *Matrix[T], beta T, c *Matrix[T]) error) bool {
	t.Helper()
	sb := randBatch[T](seed)
	oracle := append([]T(nil), sb.C...)
	for i := 0; i < sb.Count; i++ {
		a, b, c := itemViews(sb, oracle, i)
		if err := loop(sb.TransA, sb.TransB, sb.Alpha, a, b, sb.Beta, c); err != nil {
			t.Fatalf("seed %d item %d: %v", seed, i, err)
		}
		nc := sb.M * sb.N
		copy(oracle[i*sb.StrideC:i*sb.StrideC+nc], c.Data)
	}
	if err := exec(sb); err != nil {
		t.Fatalf("seed %d: batched: %v", seed, err)
	}
	for j := range sb.C {
		if sb.C[j] != oracle[j] {
			t.Logf("seed %d: slab element %d: batched %v, loop %v (m=%d n=%d k=%d count=%d sA=%d sB=%d sC=%d)",
				seed, j, sb.C[j], oracle[j], sb.M, sb.N, sb.K, sb.Count, sb.StrideA, sb.StrideB, sb.StrideC)
			return false
		}
	}
	return true
}

func TestGEMMStridedBatchedMatchesLoopQuickDouble(t *testing.T) {
	g := testBatchGEMM(t, Double)
	f := func(seed int64) bool {
		return checkBatchedVsLoop(t, seed,
			func(sb *StridedBatch[float64]) error { return GEMMStridedBatched(g, sb) },
			func(ta, tb Transpose, alpha float64, a, b *Matrix[float64], beta float64, c *Matrix[float64]) error {
				return Run(g, ta, tb, alpha, a, b, beta, c)
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGEMMStridedBatchedMatchesLoopQuickSingle(t *testing.T) {
	g := testBatchGEMM(t, Single)
	f := func(seed int64) bool {
		return checkBatchedVsLoop(t, seed,
			func(sb *StridedBatch[float32]) error { return GEMMStridedBatched(g, sb) },
			func(ta, tb Transpose, alpha float32, a, b *Matrix[float32], beta float32, c *Matrix[float32]) error {
				return Run(g, ta, tb, alpha, a, b, beta, c)
			})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPoolGEMMStridedBatchedMatchesLoop checks the pool path against
// the same single-GEMM loop oracle: partitioning the batch index must
// not change a single bit of any item.
func TestPoolGEMMStridedBatchedMatchesLoop(t *testing.T) {
	pg, err := NewPoolGEMM(PoolOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	g := testBatchGEMM(t, Double)
	for seed := int64(100); seed < 112; seed++ {
		// The oracle loop runs on a single small engine; bit-identity
		// across engines holds because every kernel accumulates in
		// canonical k-order.
		if !checkBatchedVsLoop(t, seed,
			func(sb *StridedBatch[float64]) error { return PoolGEMMStridedBatched(pg, sb) },
			func(ta, tb Transpose, alpha float64, a, b *Matrix[float64], beta float64, c *Matrix[float64]) error {
				return Run(g, ta, tb, alpha, a, b, beta, c)
			}) {
			t.Fatalf("pool batched diverged from loop oracle at seed %d", seed)
		}
	}
}

// TestStridedBatchBroadcast pins the stride-0 semantics: every item
// multiplies against the same shared operand.
func TestStridedBatchBroadcast(t *testing.T) {
	g := testBatchGEMM(t, Double)
	rng := rand.New(rand.NewSource(5))
	const m, n, k, count = 6, 5, 4, 7
	w := make([]float64, m*k) // one shared weight matrix
	for i := range w {
		w[i] = rng.Float64()
	}
	xs := make([]float64, k*n*count)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	out := make([]float64, m*n*count)
	sb := &StridedBatch[float64]{
		M: m, N: n, K: k, Count: count, Alpha: 1, Order: RowMajor,
		A: w, StrideA: 0,
		B: xs, StrideB: k * n,
		C: out, StrideC: m * n,
	}
	if err := GEMMStridedBatched(g, sb); err != nil {
		t.Fatal(err)
	}
	am := NewMatrix[float64](m, k, RowMajor)
	copy(am.Data, w)
	for i := 0; i < count; i++ {
		bm := NewMatrix[float64](k, n, RowMajor)
		copy(bm.Data, xs[i*k*n:(i+1)*k*n])
		cm := NewMatrix[float64](m, n, RowMajor)
		if err := Run(g, NoTrans, NoTrans, 1.0, am, bm, 0.0, cm); err != nil {
			t.Fatal(err)
		}
		for j, v := range cm.Data {
			if out[i*m*n+j] != v {
				t.Fatalf("item %d element %d: batched %v, single %v", i, j, out[i*m*n+j], v)
			}
		}
	}
}
