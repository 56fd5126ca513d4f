// Package blas provides reference GEMM implementations in pure Go. They
// are the correctness oracle for every generated kernel and every
// simulated execution path in this repository: naive triple loops for
// clarity, a cache-blocked variant, and a goroutine-parallel variant for
// larger verification problems.
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

func opAt[T matrix.Scalar](x *matrix.Matrix[T], t Transpose, r, c int) T {
	if t == Trans {
		return x.At(c, r)
	}
	return x.At(r, c)
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

// GEMM computes C ← alpha·op(A)·op(B) + beta·C with the naive triple
// loop, accumulating in float64 regardless of T for a tight oracle.
// It walks op(A) along a row and op(B) down a column by fixed Data
// steps instead of indexing each element.
func GEMM[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	m, n, k := checkDims(ta, tb, a, b, c)
	aRow, aCol := opSteps(a, ta)
	bRow, bCol := opSteps(b, tb)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float64
			ap, bp := i*aRow, j*bCol
			for p := 0; p < k; p++ {
				acc += float64(float64(a.Data[ap]) * float64(b.Data[bp]))
				ap += aCol
				bp += bRow
			}
			ci := c.Index(i, j)
			c.Data[ci] = T(float64(float64(alpha)*acc) + float64(float64(beta)*float64(c.Data[ci])))
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

// blockDim is the cache-block edge used by GEMMBlocked.
const blockDim = 64

// GEMMBlocked computes C ← alpha·op(A)·op(B) + beta·C with a simple
// three-level cache blocking. It exists both as a faster oracle and as
// the "ATLAS-style tuned C" reference point discussed in the paper's
// Fig. 11 comparison.
func GEMMBlocked[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	m, n, k := checkDims(ta, tb, a, b, c)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c.Set(i, j, T(float64(beta)*float64(c.At(i, j))))
		}
	}
	for ii := 0; ii < m; ii += blockDim {
		iEnd := min(ii+blockDim, m)
		for pp := 0; pp < k; pp += blockDim {
			pEnd := min(pp+blockDim, k)
			for jj := 0; jj < n; jj += blockDim {
				jEnd := min(jj+blockDim, n)
				for i := ii; i < iEnd; i++ {
					for p := pp; p < pEnd; p++ {
						av := float64(alpha) * float64(opAt(a, ta, i, p))
						if av == 0 {
							continue
						}
						for j := jj; j < jEnd; j++ {
							c.Set(i, j, T(float64(c.At(i, j))+float64(av*float64(opAt(b, tb, p, j)))))
						}
					}
				}
			}
		}
	}
}

// GEMMParallel computes C ← alpha·op(A)·op(B) + beta·C with GEMM's
// arithmetic, splitting the rows of C across up to GOMAXPROCS
// goroutines, so its result does not depend on the worker count. With
// one worker (GOMAXPROCS 1, or m 1) it is GEMM.
func GEMMParallel[T matrix.Scalar](ta, tb Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	m, n, k := checkDims(ta, tb, a, b, c)
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	if workers <= 1 {
		GEMM(ta, tb, alpha, a, b, beta, c)
		return
	}
	var wg sync.WaitGroup
	rowsPer := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * rowsPer
		hi := min(lo+rowsPer, m)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				for j := 0; j < n; j++ {
					var acc float64
					for p := 0; p < k; p++ {
						acc += float64(float64(opAt(a, ta, i, p)) * float64(opAt(b, tb, p, j)))
					}
					c.Set(i, j, T(float64(float64(alpha)*acc)+float64(float64(beta)*float64(c.At(i, j)))))
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// FlopCount returns the floating-point operation count 2·m·n·k the paper
// uses to convert kernel times to GFlop/s.
func FlopCount(m, n, k int) float64 {
	return 2 * float64(m) * float64(n) * float64(k)
}
