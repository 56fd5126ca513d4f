package level3

import (
	"fmt"
	"math"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

// Cholesky factors the symmetric positive-definite n×n matrix A (lower
// triangle stored) in place into L·Lᵀ, using the blocked right-looking
// algorithm: unblocked factorization of the diagonal block on the
// host, a device TRSM for the panel, and a device SYRK/GEMM trailing
// update — the textbook LAPACK structure whose flops are almost all
// GEMM, which is why the paper's routine matters.
func Cholesky[T matrix.Scalar](e *Engine, a *matrix.Matrix[T]) error {
	n := a.Rows
	if a.Cols != n {
		return fmt.Errorf("level3: Cholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	for _, k := range blocks(n, e.NB) {
		rk := blockLen(k, n, e.NB)
		akk := a.View(k, k, rk, rk)
		if err := potf2(akk); err != nil {
			return err
		}
		rest := n - k - rk
		if rest == 0 {
			continue
		}
		panel := a.View(k+rk, k, rest, rk)
		// Panel: A_ik ← A_ik · L_kk⁻ᵀ, i.e. a right-side TRSM with the
		// transposed lower factor.
		if err := TRSM(e, Right, Lower, blas.Trans, NonUnit, T(1), akk, panel); err != nil {
			return err
		}
		// Trailing update: A₂₂ ← A₂₂ − panel·panelᵀ (lower triangle).
		trailing := a.View(k+rk, k+rk, rest, rest)
		if err := SYRK(e, Lower, blas.NoTrans, T(-1), panel, T(1), trailing); err != nil {
			return err
		}
	}
	return nil
}

// potf2 is the unblocked host Cholesky of one diagonal block.
func potf2[T matrix.Scalar](a *matrix.Matrix[T]) error {
	n := a.Rows
	for j := 0; j < n; j++ {
		d := float64(a.At(j, j))
		for p := 0; p < j; p++ {
			v := float64(a.At(j, p))
			d -= float64(v * v)
		}
		if d <= 0 {
			return ErrNotSPD
		}
		d = sqrt(d)
		a.Set(j, j, T(d))
		for i := j + 1; i < n; i++ {
			v := float64(a.At(i, j))
			for p := 0; p < j; p++ {
				v -= float64(float64(a.At(i, p)) * float64(a.At(j, p)))
			}
			a.Set(i, j, T(v/d))
		}
	}
	return nil
}

func sqrt(x float64) float64 { return math.Sqrt(x) }

// CholeskySolve solves A·X = B given the Cholesky factor L computed by
// Cholesky (in the lower triangle of a), overwriting B with X:
// forward then backward triangular solves through the engine.
func CholeskySolve[T matrix.Scalar](e *Engine, a *matrix.Matrix[T], b *matrix.Matrix[T]) error {
	if err := TRSM(e, Left, Lower, blas.NoTrans, NonUnit, T(1), a, b); err != nil {
		return err
	}
	return TRSM(e, Left, Lower, blas.Trans, NonUnit, T(1), a, b)
}

// LU factors the m×n matrix A in place into P·A = L·U with partial
// pivoting (blocked right-looking getrf): host panel factorization,
// device TRSM for the U panel, device GEMM for the trailing update.
// The returned slice is the pivot sequence (LAPACK ipiv convention:
// row i was swapped with piv[i]).
func LU[T matrix.Scalar](e *Engine, a *matrix.Matrix[T]) ([]int, error) {
	m, n := a.Rows, a.Cols
	minDim := m
	if n < minDim {
		minDim = n
	}
	piv := make([]int, minDim)
	for _, k := range blocks(minDim, e.NB) {
		rk := blockLen(k, minDim, e.NB)
		// Factor the panel A[k:m, k:k+rk] on the host with pivoting.
		panel := a.View(k, k, m-k, rk)
		if err := getf2(panel, piv[k:k+rk]); err != nil {
			return piv, err
		}
		// Globalize pivot indices and apply the swaps to the rest of
		// the matrix (columns outside the panel).
		for i := 0; i < rk; i++ {
			piv[k+i] += k
			p := piv[k+i]
			if p != k+i {
				swapRowsOutside(a, k+i, p, k, k+rk)
			}
		}
		if k+rk >= n {
			continue
		}
		// U panel: solve L₁₁·U₁₂ = A₁₂ (unit lower).
		l11 := a.View(k, k, rk, rk)
		u12 := a.View(k, k+rk, rk, n-k-rk)
		if err := TRSM(e, Left, Lower, blas.NoTrans, Unit, T(1), l11, u12); err != nil {
			return piv, err
		}
		// Trailing update: A₂₂ ← A₂₂ − L₂₁·U₁₂.
		if k+rk < m {
			l21 := a.View(k+rk, k, m-k-rk, rk)
			a22 := a.View(k+rk, k+rk, m-k-rk, n-k-rk)
			if err := gemmDev(e, blas.NoTrans, blas.NoTrans, T(-1), l21, u12, T(1), a22); err != nil {
				return piv, err
			}
		}
	}
	return piv, nil
}

// getf2 is the unblocked host LU of one panel with partial pivoting;
// piv receives panel-relative pivot rows.
func getf2[T matrix.Scalar](a *matrix.Matrix[T], piv []int) error {
	m, n := a.Rows, a.Cols
	for j := 0; j < n; j++ {
		// Pivot search in column j.
		p := j
		best := abs(float64(a.At(j, j)))
		for i := j + 1; i < m; i++ {
			if v := abs(float64(a.At(i, j))); v > best {
				best, p = v, i
			}
		}
		piv[j] = p
		if best == 0 {
			return ErrSingular
		}
		if p != j {
			for c := 0; c < n; c++ {
				vj, vp := a.At(j, c), a.At(p, c)
				a.Set(j, c, vp)
				a.Set(p, c, vj)
			}
		}
		d := float64(a.At(j, j))
		for i := j + 1; i < m; i++ {
			l := float64(a.At(i, j)) / d
			a.Set(i, j, T(l))
			for c := j + 1; c < n; c++ {
				a.Set(i, c, T(float64(a.At(i, c))-float64(l*float64(a.At(j, c)))))
			}
		}
	}
	return nil
}

// swapRowsOutside swaps rows i and p of a everywhere except columns
// [cLo, cHi) (already swapped by the panel factorization).
func swapRowsOutside[T matrix.Scalar](a *matrix.Matrix[T], i, p, cLo, cHi int) {
	for c := 0; c < a.Cols; c++ {
		if c >= cLo && c < cHi {
			continue
		}
		vi, vp := a.At(i, c), a.At(p, c)
		a.Set(i, c, vp)
		a.Set(p, c, vi)
	}
}

// LUSolve solves A·X = B using the factorization from LU (factors in a,
// pivots in piv), overwriting B with X.
func LUSolve[T matrix.Scalar](e *Engine, a *matrix.Matrix[T], piv []int, b *matrix.Matrix[T]) error {
	// Apply the pivots to B.
	for i, p := range piv {
		if p != i {
			for c := 0; c < b.Cols; c++ {
				vi, vp := b.At(i, c), b.At(p, c)
				b.Set(i, c, vp)
				b.Set(p, c, vi)
			}
		}
	}
	if err := TRSM(e, Left, Lower, blas.NoTrans, Unit, T(1), a, b); err != nil {
		return err
	}
	return TRSM(e, Left, Upper, blas.NoTrans, NonUnit, T(1), a, b)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
