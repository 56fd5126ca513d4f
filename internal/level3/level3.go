// Package level3 builds GEMM-based Level-3 BLAS routines and blocked
// LAPACK-style factorizations on top of the tuned GEMM implementation —
// the consumer layer the paper's introduction motivates ("GEMM … is a
// building block of LAPACK and other Level-3 BLAS routines", citing
// Kågström, Ling and Van Loan's GEMM-based Level-3 BLAS).
//
// Each routine partitions its operands into nb×nb blocks: the O(n³)
// bulk of the work is routed through the device GEMM, while the small
// diagonal blocks run on the host. SYRK's and TRSM's diagonal blocks
// are the internal/blas reference routines (blas.SYRK, blas.TRSM);
// TRMM's multiplies and the unblocked Cholesky/LU are this package's
// own host kernels, since blas has no counterpart.
package level3

import (
	"context"
	"errors"
	"fmt"
	"oclgemm/internal/blas"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
	"oclgemm/internal/sched"
)

// Uplo selects the triangle of a symmetric/triangular matrix.
type Uplo int

const (
	// Lower triangle.
	Lower Uplo = iota
	// Upper triangle.
	Upper
)

// Side selects the multiplication side for SYMM/TRMM/TRSM.
type Side int

const (
	// Left: op(A)·B.
	Left Side = iota
	// Right: B·op(A).
	Right
)

// Diag marks a triangular matrix as unit- or non-unit-diagonal.
type Diag int

const (
	// NonUnit uses the stored diagonal.
	NonUnit Diag = iota
	// Unit assumes an implicit unit diagonal.
	Unit
)

// ErrNotSPD reports a Cholesky factorization that hit a non-positive
// pivot (the matrix is not symmetric positive definite).
var ErrNotSPD = errors.New("level3: matrix is not positive definite")

// ErrSingular reports an exactly singular pivot in LU.
var ErrSingular = errors.New("level3: matrix is singular")

// Engine runs Level-3 routines with the device GEMM as the bulk
// operation. Block multiplies route through a reusable gemmimpl.Engine,
// so the factorization inner loops (SYRK/TRSM/Cholesky/LU) reuse plans
// across block shapes and skip repacking operands that are unchanged
// between consecutive calls (e.g. the fixed panel of a TRSM or SYRK
// sweep).
type Engine struct {
	eng *gemmimpl.Engine
	// pool, when set, routes every bulk multiply through the
	// multi-device scheduler instead of a single device engine.
	pool *sched.Pool
	// NB is the blocking size; diagonal blocks of NB×NB run on the
	// host, everything else through the device GEMM.
	NB int
}

// New creates an engine from a device and tuned kernel parameters. The
// block size defaults to max(Mwg, Nwg) of the kernel (so device GEMM
// calls are at least one work-group panel).
func New(d *device.Spec, p codegen.Params) (*Engine, error) {
	im, err := gemmimpl.New(d, p)
	if err != nil {
		return nil, err
	}
	nb := max(p.Mwg, p.Nwg)
	return &Engine{eng: gemmimpl.NewEngine(im), NB: nb}, nil
}

// NewWithPool creates an engine whose bulk multiplies run on a
// multi-device scheduler pool instead of one device. The block size is
// the pool's BlockSize (the largest member work-group panel), so every
// device GEMM call is at least one panel on every member. The engine
// borrows the pool; closing the engine does not close the pool.
func NewWithPool(p *sched.Pool) *Engine {
	return &Engine{pool: p, NB: p.BlockSize()}
}

// Pool exposes the scheduler pool of a pool-backed engine (nil for a
// single-device engine).
func (e *Engine) Pool() *sched.Pool { return e.pool }

// SetWorkers bounds per-launch work-group parallelism (0 = GOMAXPROCS).
func (e *Engine) SetWorkers(n int) {
	if e.pool != nil {
		e.pool.SetWorkers(n)
		return
	}
	e.eng.Impl().SetWorkers(n)
}

// Close releases the engine's cached plans (device buffers, kernels).
// The engine remains usable; the next call rebuilds its plans. A
// borrowed pool is left open for its owner to close.
func (e *Engine) Close() {
	if e.eng != nil {
		e.eng.Close()
	}
}

// gemm routes one block multiply through the device — or across the
// whole pool when the engine is pool-backed.
func gemmDev[T matrix.Scalar](e *Engine, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	if e.pool != nil {
		return sched.RunCtx(context.Background(), e.pool, ta, tb, alpha, a, b, beta, c)
	}
	return gemmimpl.EngineRunCtx(context.Background(), e.eng, ta, tb, alpha, a, b, beta, c)
}

func blocks(n, nb int) []int {
	var out []int
	for s := 0; s < n; s += nb {
		out = append(out, s)
	}
	return out
}

func blockLen(start, n, nb int) int {
	if start+nb > n {
		return n - start
	}
	return nb
}

// SYRK computes C ← alpha·A·Aᵀ + beta·C (trans == NoTrans) or
// C ← alpha·Aᵀ·A + beta·C (trans == Trans), updating only the uplo
// triangle of the n×n matrix C. Off-diagonal blocks go through the
// device GEMM; diagonal blocks run on the host through blas.SYRK.
func SYRK[T matrix.Scalar](e *Engine, uplo Uplo, trans blas.Transpose, alpha T, a *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	n := c.Rows
	if c.Cols != n {
		return fmt.Errorf("level3: SYRK needs square C, got %dx%d", c.Rows, c.Cols)
	}
	an, k := a.Rows, a.Cols
	if trans == blas.Trans {
		an, k = a.Cols, a.Rows
	}
	if an != n {
		return fmt.Errorf("level3: SYRK dimension mismatch: op(A) is %dx%d, C is %dx%d", an, k, n, n)
	}
	// aBlock returns the block of op(A) covering rows [i, i+ri).
	aBlock := func(i, ri int) *matrix.Matrix[T] {
		if trans == blas.Trans {
			return a.View(0, i, k, ri)
		}
		return a.View(i, 0, ri, k)
	}
	opA, opB := blas.NoTrans, blas.Trans
	if trans == blas.Trans {
		opA, opB = blas.Trans, blas.NoTrans
	}
	for _, i := range blocks(n, e.NB) {
		ri := blockLen(i, n, e.NB)
		for _, j := range blocks(n, e.NB) {
			rj := blockLen(j, n, e.NB)
			inTriangle := (uplo == Lower && i > j) || (uplo == Upper && i < j)
			if i == j {
				blas.SYRK(uplo == Upper, trans, alpha, aBlock(i, ri), beta, c.View(i, i, ri, ri))
				continue
			}
			if !inTriangle {
				continue
			}
			if err := gemmDev(e, opA, opB, alpha, aBlock(i, ri), aBlock(j, rj), beta, c.View(i, j, ri, rj)); err != nil {
				return err
			}
		}
	}
	return nil
}

// SYMM computes C ← alpha·A·B + beta·C (side == Left) or
// C ← alpha·B·A + beta·C (side == Right) where A is symmetric with the
// uplo triangle stored. Block pairs reference the stored triangle with
// a transposition when needed, so every bulk multiply is a plain GEMM.
func SYMM[T matrix.Scalar](e *Engine, side Side, uplo Uplo, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	m, n := c.Rows, c.Cols
	na := m
	if side == Right {
		na = n
	}
	if a.Rows != na || a.Cols != na {
		return fmt.Errorf("level3: SYMM A must be %dx%d, got %dx%d", na, na, a.Rows, a.Cols)
	}
	if side == Left && (b.Rows != m || b.Cols != n) || side == Right && (b.Rows != m || b.Cols != n) {
		return fmt.Errorf("level3: SYMM B must be %dx%d, got %dx%d", m, n, b.Rows, b.Cols)
	}
	// symBlock returns block (i, j) of the full symmetric A as a view
	// of the stored triangle plus the op to apply. Diagonal blocks
	// straddle the triangle boundary, so they are materialized from the
	// stored half into a small symmetric copy.
	symBlock := func(i, j, ri, rj int) (*matrix.Matrix[T], blas.Transpose) {
		if i == j {
			blk := matrix.New[T](ri, ri, matrix.RowMajor)
			for r := 0; r < ri; r++ {
				for c := 0; c < ri; c++ {
					gr, gc := i+r, j+c
					if (uplo == Lower && gc > gr) || (uplo == Upper && gc < gr) {
						gr, gc = gc, gr
					}
					blk.Set(r, c, a.At(gr, gc))
				}
			}
			return blk, blas.NoTrans
		}
		stored := (uplo == Lower && i > j) || (uplo == Upper && i < j)
		if stored {
			return a.View(i, j, ri, rj), blas.NoTrans
		}
		return a.View(j, i, rj, ri), blas.Trans
	}
	for _, i := range blocks(m, e.NB) {
		ri := blockLen(i, m, e.NB)
		for _, j := range blocks(n, e.NB) {
			rj := blockLen(j, n, e.NB)
			cBlk := c.View(i, j, ri, rj)
			// Accumulate over the inner block dimension.
			first := true
			if side == Left {
				for _, p := range blocks(m, e.NB) {
					rp := blockLen(p, m, e.NB)
					aBlk, op := symBlock(i, p, ri, rp)
					bt := beta
					if !first {
						bt = 1
					}
					if err := gemmDev(e, op, blas.NoTrans, alpha, aBlk, b.View(p, j, rp, rj), bt, cBlk); err != nil {
						return err
					}
					first = false
				}
			} else {
				for _, p := range blocks(n, e.NB) {
					rp := blockLen(p, n, e.NB)
					aBlk, op := symBlock(p, j, rp, rj)
					bt := beta
					if !first {
						bt = 1
					}
					if err := gemmDev(e, blas.NoTrans, op, alpha, b.View(i, p, ri, rp), aBlk, bt, cBlk); err != nil {
						return err
					}
					first = false
				}
			}
		}
	}
	return nil
}

// TRMM computes B ← alpha·op(A)·B (side == Left) or B ← alpha·B·op(A)
// (side == Right) with A triangular. Diagonal blocks multiply on the
// host; the rest is GEMM.
func TRMM[T matrix.Scalar](e *Engine, side Side, uplo Uplo, trans blas.Transpose, diag Diag, alpha T, a *matrix.Matrix[T], b *matrix.Matrix[T]) error {
	m, n := b.Rows, b.Cols
	na := m
	if side == Right {
		na = n
	}
	if a.Rows != na || a.Cols != na {
		return fmt.Errorf("level3: TRMM A must be %dx%d, got %dx%d", na, na, a.Rows, a.Cols)
	}
	// Effective triangle of op(A).
	effLower := (uplo == Lower) == (trans == blas.NoTrans)

	// triBlock returns block (i, j) of op(A) (i, j in block starts).
	triBlock := func(i, j, ri, rj int) (*matrix.Matrix[T], blas.Transpose) {
		if trans == blas.NoTrans {
			return a.View(i, j, ri, rj), blas.NoTrans
		}
		return a.View(j, i, rj, ri), blas.Trans
	}

	if side == Left {
		// B_i ← alpha · Σ_j op(A)_ij B_j. Process rows so that
		// unmodified B_j are still available: for effLower go bottom-up
		// (dependencies j ≤ i), for effUpper top-down.
		starts := blocks(m, e.NB)
		if effLower {
			for idx := len(starts) - 1; idx >= 0; idx-- {
				if err := trmmLeftRow(e, starts, idx, effLower, diag, alpha, triBlock, b, n); err != nil {
					return err
				}
			}
		} else {
			for idx := 0; idx < len(starts); idx++ {
				if err := trmmLeftRow(e, starts, idx, effLower, diag, alpha, triBlock, b, n); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Right side: B_j ← alpha · Σ_p B_p op(A)_pj. For effLower the
	// dependencies are p ≥ j: process columns left-to-right; for
	// effUpper right-to-left.
	starts := blocks(n, e.NB)
	order := make([]int, len(starts))
	for i := range starts {
		if effLower {
			order[i] = i
		} else {
			order[i] = len(starts) - 1 - i
		}
	}
	for _, idx := range order {
		j := starts[idx]
		rj := blockLen(j, n, e.NB)
		bj := b.View(0, j, m, rj)
		// Diagonal contribution first (uses the current B_j).
		tmp := bj.Clone()
		diagBlk, op := triBlock(j, j, rj, rj)
		trmmDiagHostRight(effLower, diag, op, alpha, diagBlk, tmp, bj)
		// Off-diagonal contributions come from columns not yet
		// processed in this order, i.e. still unmodified.
		for pdx, p := range starts {
			inTri := (effLower && pdx > idx) || (!effLower && pdx < idx)
			if !inTri {
				continue
			}
			rp := blockLen(p, n, e.NB)
			aBlk, opA := triBlock(p, j, rp, rj)
			if err := gemmDev(e, blas.NoTrans, opA, alpha, b.View(0, p, m, rp), aBlk, 1, bj); err != nil {
				return err
			}
		}
	}
	return nil
}

// trmmLeftRow updates one block row of B for left-side TRMM.
func trmmLeftRow[T matrix.Scalar](e *Engine, starts []int, idx int, effLower bool, diag Diag, alpha T,
	triBlock func(i, j, ri, rj int) (*matrix.Matrix[T], blas.Transpose), b *matrix.Matrix[T], n int) error {
	m := b.Rows
	i := starts[idx]
	ri := blockLen(i, m, e.NB)
	bi := b.View(i, 0, ri, n)
	// Diagonal contribution replaces B_i.
	diagBlk, op := triBlock(i, i, ri, ri)
	tmp := bi.Clone()
	trmmDiagHostLeft(effLower, diag, op, alpha, diagBlk, tmp, bi)
	// Off-diagonal: B_i += alpha · op(A)_ij · B_j for j in the strict
	// triangle (those B_j are not yet modified given the processing
	// order).
	for jdx, j := range starts {
		inTri := (effLower && jdx < idx) || (!effLower && jdx > idx)
		if !inTri {
			continue
		}
		rj := blockLen(j, m, e.NB)
		aBlk, opA := triBlock(i, j, ri, rj)
		if err := gemmDev(e, opA, blas.NoTrans, alpha, aBlk, b.View(j, 0, rj, n), 1, bi); err != nil {
			return err
		}
	}
	return nil
}

// trmmDiagHostLeft computes dst = alpha · tri(op(A)) · src for one
// small diagonal block (host).
func trmmDiagHostLeft[T matrix.Scalar](effLower bool, diag Diag, op blas.Transpose, alpha T, a, src, dst *matrix.Matrix[T]) {
	n := src.Rows
	cols := src.Cols
	at := func(i, j int) float64 {
		if diag == Unit && i == j {
			return 1
		}
		if op == blas.Trans {
			return float64(a.At(j, i))
		}
		return float64(a.At(i, j))
	}
	for i := 0; i < n; i++ {
		lo, hi := 0, i+1
		if !effLower {
			lo, hi = i, n
		}
		for c := 0; c < cols; c++ {
			var acc float64
			for j := lo; j < hi; j++ {
				acc += float64(at(i, j) * float64(src.At(j, c)))
			}
			dst.Set(i, c, T(float64(alpha)*acc))
		}
	}
}

// trmmDiagHostRight computes dst = alpha · src · tri(op(A)) (host).
func trmmDiagHostRight[T matrix.Scalar](effLower bool, diag Diag, op blas.Transpose, alpha T, a, src, dst *matrix.Matrix[T]) {
	rows := src.Rows
	n := src.Cols
	at := func(i, j int) float64 {
		if diag == Unit && i == j {
			return 1
		}
		if op == blas.Trans {
			return float64(a.At(j, i))
		}
		return float64(a.At(i, j))
	}
	for r := 0; r < rows; r++ {
		for j := 0; j < n; j++ {
			lo, hi := j, n
			if !effLower {
				lo, hi = 0, j+1
			}
			var acc float64
			for p := lo; p < hi; p++ {
				acc += float64(float64(src.At(r, p)) * at(p, j))
			}
			dst.Set(r, j, T(float64(alpha)*acc))
		}
	}
}

// TRSM solves op(A)·X = alpha·B (side == Left) or X·op(A) = alpha·B
// (side == Right) for X, overwriting B, with A triangular. Diagonal
// blocks solve on the host through blas.TRSM; the panel updates are
// GEMM.
func TRSM[T matrix.Scalar](e *Engine, side Side, uplo Uplo, trans blas.Transpose, diag Diag, alpha T, a *matrix.Matrix[T], b *matrix.Matrix[T]) error {
	m, n := b.Rows, b.Cols
	na := m
	if side == Right {
		na = n
	}
	if a.Rows != na || a.Cols != na {
		return fmt.Errorf("level3: TRSM A must be %dx%d, got %dx%d", na, na, a.Rows, a.Cols)
	}
	if alpha != 1 {
		scale(b, alpha)
	}
	effLower := (uplo == Lower) == (trans == blas.NoTrans)
	triBlock := func(i, j, ri, rj int) (*matrix.Matrix[T], blas.Transpose) {
		if trans == blas.NoTrans {
			return a.View(i, j, ri, rj), blas.NoTrans
		}
		return a.View(j, i, rj, ri), blas.Trans
	}

	if side == Left {
		starts := blocks(m, e.NB)
		order := make([]int, len(starts))
		for i := range starts {
			if effLower {
				order[i] = i // forward substitution
			} else {
				order[i] = len(starts) - 1 - i // backward
			}
		}
		for _, idx := range order {
			i := starts[idx]
			ri := blockLen(i, m, e.NB)
			bi := b.View(i, 0, ri, n)
			blas.TRSM(true, uplo == Upper, diag == Unit, trans, 1, a.View(i, i, ri, ri), bi)
			// Eliminate this block from the remaining rows:
			// B_p -= op(A)_pi · X_i.
			for pdx, p := range starts {
				pending := (effLower && pdx > idx) || (!effLower && pdx < idx)
				if !pending {
					continue
				}
				rp := blockLen(p, m, e.NB)
				aBlk, opA := triBlock(p, i, rp, ri)
				if err := gemmDev(e, opA, blas.NoTrans, T(-1), aBlk, bi, 1, b.View(p, 0, rp, n)); err != nil {
					return err
				}
			}
		}
		return nil
	}

	starts := blocks(n, e.NB)
	order := make([]int, len(starts))
	for i := range starts {
		if effLower {
			order[i] = len(starts) - 1 - i // X·L = B: solve right-to-left
		} else {
			order[i] = i
		}
	}
	for _, idx := range order {
		j := starts[idx]
		rj := blockLen(j, n, e.NB)
		bj := b.View(0, j, m, rj)
		blas.TRSM(false, uplo == Upper, diag == Unit, trans, 1, a.View(j, j, rj, rj), bj)
		// Eliminate from pending columns: B_p -= X_j · op(A)_jp.
		for pdx, p := range starts {
			pending := (effLower && pdx < idx) || (!effLower && pdx > idx)
			if !pending {
				continue
			}
			rp := blockLen(p, n, e.NB)
			aBlk, opA := triBlock(j, p, rj, rp)
			if err := gemmDev(e, blas.NoTrans, opA, T(-1), bj, aBlk, 1, b.View(0, p, m, rp)); err != nil {
				return err
			}
		}
	}
	return nil
}

func scale[T matrix.Scalar](m *matrix.Matrix[T], alpha T) {
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			m.Set(i, j, alpha*m.At(i, j))
		}
	}
}
