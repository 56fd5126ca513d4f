// Package blas provides the reference GEMM, SYRK and TRSM in pure Go.
// They are the correctness oracle for every generated kernel and every
// simulated execution path in this repository. Every GEMM-shaped
// routine (GEMM, its row-panel parallel form GEMMParallel, GEMMBlocked
// and SYRK) runs one row loop that accumulates in float64 and rounds
// each element once, so they all agree bit for bit.
package blas

import (
	"fmt"
	"runtime"
	"sync"

	"oclgemm/internal/matrix"
)

// Transpose selects op(X) for a GEMM operand.
type Transpose int

const (
	// NoTrans uses X as stored.
	NoTrans Transpose = iota
	// Trans uses Xᵀ.
	Trans
)

// String returns "N" or "T".
func (t Transpose) String() string {
	if t == Trans {
		return "T"
	}
	return "N"
}

// GEMMType identifies one of the four multiplication types of the paper
// (§III): NN, NT, TN, TT.
type GEMMType struct {
	TransA, TransB Transpose
}

// GEMMTypes lists the four types in the paper's order.
var GEMMTypes = []GEMMType{
	{NoTrans, NoTrans},
	{NoTrans, Trans},
	{Trans, NoTrans},
	{Trans, Trans},
}

// String returns "NN", "NT", "TN" or "TT".
func (g GEMMType) String() string { return g.TransA.String() + g.TransB.String() }

// ParseGEMMType converts "NN"/"NT"/"TN"/"TT" to a GEMMType.
func ParseGEMMType(s string) (GEMMType, error) {
	for _, g := range GEMMTypes {
		if g.String() == s {
			return g, nil
		}
	}
	return GEMMType{}, fmt.Errorf("blas: unknown GEMM type %q", s)
}

func opDims[T matrix.Scalar](x *matrix.Matrix[T], t Transpose) (rows, cols int) {
	if t == Trans {
		return x.Cols, x.Rows
	}
	return x.Rows, x.Cols
}

func checkDims[T matrix.Scalar](ta, tb Transpose, a, b, c *matrix.Matrix[T]) (m, n, k int) {
	am, ak := opDims(a, ta)
	bk, bn := opDims(b, tb)
	if ak != bk {
		panic(fmt.Sprintf("blas: inner dimensions disagree: op(A) is %dx%d, op(B) is %dx%d", am, ak, bk, bn))
	}
	if c.Rows != am || c.Cols != bn {
		panic(fmt.Sprintf("blas: C is %dx%d, want %dx%d", c.Rows, c.Cols, am, bn))
	}
	return am, bn, ak
}

// GEMM computes C ← alpha·op(A)·op(B) + beta·C on one goroutine,
// accumulating in float64 regardless of T and rounding each element
// once, for a tight oracle.
func GEMM[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	m, n, _ := checkDims(ta, tb, a, b, c)
	gemmRows(ta, tb, alpha, a, b, beta, c, 0, m, func(int) (int, int) { return 0, n })
}

// gemmRows computes rows [i0, i1) of C ← alpha·op(A)·op(B) + beta·C,
// row i over the columns [lo, hi) that cols(i) returns. It runs in
// i, p, j order, walking op(A) along row i and op(B) along row p by
// fixed Data steps, and sums the row in a float64 scratch row, so each
// element gets the products of a k-long dot product summed in k order
// and is rounded to T once. Zero operands are not skipped, so NaN and
// Inf propagate. This is the one loop behind GEMM, GEMMParallel,
// GEMMBlocked and SYRK.
func gemmRows[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T], i0, i1 int, cols func(i int) (lo, hi int)) {
	_, k := opDims(a, ta)
	aRow, aCol := opSteps(a, ta)
	bRow, bCol := opSteps(b, tb)
	cRow, cCol := opSteps(c, NoTrans)
	acc := make([]float64, c.Cols)
	for i := i0; i < i1; i++ {
		lo, hi := cols(i)
		row := acc[lo:hi]
		clear(row)
		ap := i * aRow
		for p := 0; p < k; p++ {
			av := float64(a.Data[ap])
			bp := p*bRow + lo*bCol
			for j := range row {
				row[j] += float64(av * float64(b.Data[bp]))
				bp += bCol
			}
			ap += aCol
		}
		ci := i*cRow + lo*cCol
		for _, v := range row {
			c.Data[ci] = T(float64(float64(alpha)*v) + float64(float64(beta)*float64(c.Data[ci])))
			ci += cCol
		}
	}
}

// opSteps returns the Data offsets between consecutive rows and between
// consecutive columns of op(x).
func opSteps[T matrix.Scalar](x *matrix.Matrix[T], t Transpose) (row, col int) {
	row, col = x.Stride, 1
	if x.Order == matrix.ColMajor {
		row, col = 1, x.Stride
	}
	if t == Trans {
		row, col = col, row
	}
	return row, col
}

// GEMMBlocked is GEMM. The name stays for perfbench, whose
// single-threaded host floor (blas.gflops_1t) calls it.
func GEMMBlocked[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	GEMM(ta, tb, alpha, a, b, beta, c)
}

// GEMMParallel computes GEMM's result, splitting the rows of C into
// panels across up to GOMAXPROCS goroutines. Every element is computed
// by the same loop, so the result does not depend on the worker count.
// With one worker (GOMAXPROCS 1, or m ≤ 1) it is GEMM.
func GEMMParallel[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	m, n, _ := checkDims(ta, tb, a, b, c)
	workers := min(runtime.GOMAXPROCS(0), m)
	if workers <= 1 {
		GEMM(ta, tb, alpha, a, b, beta, c)
		return
	}
	all := func(int) (int, int) { return 0, n }
	var wg sync.WaitGroup
	rowsPer := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += rowsPer {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			gemmRows(ta, tb, alpha, a, b, beta, c, lo, hi, all)
		}(lo, min(lo+rowsPer, m))
	}
	wg.Wait()
}

// FlopCount returns the floating-point operation count 2·m·n·k the paper
// uses to convert kernel times to GFlop/s.
func FlopCount(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}
