// Reference Level-3 routines beyond GEMM: straightforward
// triple-loop SYRK and substitution TRSM with float64 accumulation,
// the element-wise oracles the blocked level3 reductions (which route
// their bulk work through the tuned device GEMM) are verified against.
// Orientation is passed as plain booleans so higher layers with richer
// Uplo/Side/Diag types can call down without an import cycle.
package blas

import (
	"fmt"

	"oclgemm/internal/matrix"
)

// SYRK computes the symmetric rank-k update on the reference path:
// C ← alpha·A·Aᵀ + beta·C (trans == NoTrans, A is n×k) or
// C ← alpha·Aᵀ·A + beta·C (trans == Trans, A is k×n), touching only
// the upper (upper == true) or lower triangle of the n×n matrix C.
// Accumulation is in-order float64, matching GEMM's reference
// semantics.
func SYRK[T matrix.Scalar](upper bool, trans Transpose, alpha T, a *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) {
	n := c.Rows
	if c.Cols != n {
		panic(fmt.Sprintf("blas: SYRK needs square C, got %dx%d", c.Rows, c.Cols))
	}
	an, k := a.Rows, a.Cols
	if trans == Trans {
		an, k = a.Cols, a.Rows
	}
	if an != n {
		panic(fmt.Sprintf("blas: SYRK dimension mismatch: op(A) is %dx%d, C is %dx%d", an, k, n, n))
	}
	at := func(i, p int) float64 {
		if trans == Trans {
			return float64(a.At(p, i))
		}
		return float64(a.At(i, p))
	}
	for i := 0; i < n; i++ {
		lo, hi := 0, i+1
		if upper {
			lo, hi = i, n
		}
		for j := lo; j < hi; j++ {
			var acc float64
			for p := 0; p < k; p++ {
				acc += at(i, p) * at(j, p)
			}
			c.Set(i, j, T(float64(alpha)*acc+float64(beta)*float64(c.At(i, j))))
		}
	}
}

// TRSM solves a triangular system on the reference path, overwriting B
// with the solution X:
//
//	left == true:  op(A)·X = alpha·B   (A is m×m)
//	left == false: X·op(A) = alpha·B   (A is n×n)
//
// where B is m×n and only the upper (upper == true) or lower triangle
// of A is referenced; unit == true takes the diagonal as 1 without
// reading it. Plain forward/back substitution with float64
// accumulation — O(m²n) or O(mn²), the oracle for the blocked device
// reduction.
func TRSM[T matrix.Scalar](left, upper, unit bool, trans Transpose, alpha T, a *matrix.Matrix[T], b *matrix.Matrix[T]) {
	m, n := b.Rows, b.Cols
	na := m
	if !left {
		na = n
	}
	if a.Rows != na || a.Cols != na {
		panic(fmt.Sprintf("blas: TRSM needs %dx%d A, got %dx%d", na, na, a.Rows, a.Cols))
	}
	// op(A)[i][j] honoring the stored triangle and the unit diagonal.
	opa := func(i, j int) float64 {
		if trans == Trans {
			i, j = j, i
		}
		if unit && i == j {
			return 1
		}
		if (upper && i > j) || (!upper && i < j) {
			return 0
		}
		return float64(a.At(i, j))
	}
	// op(A) is effectively lower-triangular when (lower, NoTrans) or
	// (upper, Trans): forward substitution; otherwise backward.
	forward := upper == (trans == Trans)
	if left {
		for j := 0; j < n; j++ {
			solveColumn(forward, m, opa, func(i int) float64 { return float64(alpha) * float64(b.At(i, j)) }, func(i int, v float64) { b.Set(i, j, T(v)) }, func(i int) float64 { return float64(b.At(i, j)) })
		}
		return
	}
	// Right side: X·op(A) = alpha·B row by row — each row of X solves
	// op(A)ᵀ·xᵀ = alpha·bᵀ, i.e. the transposed system, flipping the
	// substitution direction.
	for i := 0; i < m; i++ {
		solveColumn(!forward, n, func(r, c int) float64 { return opa(c, r) }, func(j int) float64 { return float64(alpha) * float64(b.At(i, j)) }, func(j int, v float64) { b.Set(i, j, T(v)) }, func(j int) float64 { return float64(b.At(i, j)) })
	}
}

// solveColumn runs one substitution sweep for L·x = rhs (forward) or
// U·x = rhs (backward), where coefficient lookups go through m(i, j)
// and the solution is written back through set as it is produced.
func solveColumn(forward bool, n int, m func(i, j int) float64, rhs func(i int) float64, set func(i int, v float64), cur func(i int) float64) {
	if forward {
		for i := 0; i < n; i++ {
			acc := rhs(i)
			for p := 0; p < i; p++ {
				acc -= float64(m(i, p) * cur(p))
			}
			set(i, acc/m(i, i))
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		acc := rhs(i)
		for p := i + 1; p < n; p++ {
			acc -= float64(m(i, p) * cur(p))
		}
		set(i, acc/m(i, i))
	}
}
