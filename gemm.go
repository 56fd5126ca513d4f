package oclgemm

import (
	"context"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
)

// GEMM is a full matrix-multiplication routine bound to a device and a
// tuned kernel: C ← α·op(A)·op(B) + β·C for all four transpose types,
// on row- or column-major data of any size (operands are copied into
// zero-padded block-major buffers first, as in the paper's §IV-B).
//
// The routine owns a reusable execution engine: the simulated context,
// device buffers and pack/GEMM kernels for each padded problem shape
// are built on first use and kept for subsequent calls, and repeated
// calls with an unchanged A or B operand skip that operand's copy
// entirely. Steady-state calls therefore do near-zero allocation; see
// Close to release the cached device state.
//
// Concurrency contract: one GEMM may be shared by any number of
// goroutines. Concurrent Run/RunCtx/RunBatch calls are safe — calls on
// the same padded shape serialize on that shape's plan, calls on
// different shapes run in parallel, and a cold shape's plan build never
// blocks warm shapes. The mutators are individually safe concurrently
// with Runs: SetWorkers takes effect from each plan's next call;
// Observe affects only plans built afterwards (Close first to
// rebuild); Close itself may run concurrently with calls —
// in-flight calls finish on their (now evicted) plans before those are
// released.
type GEMM struct {
	eng *gemmimpl.Engine
}

// NewGEMM builds a routine from a device and kernel parameters
// (typically a Tune result).
func NewGEMM(d *Device, p Params) (*GEMM, error) {
	im, err := gemmimpl.New(d, p)
	if err != nil {
		return nil, err
	}
	return &GEMM{eng: gemmimpl.NewEngine(im)}, nil
}

// Params returns the kernel parameter set the routine uses.
func (g *GEMM) Params() Params { return g.eng.Impl().Params }

// Device returns the device the routine is bound to.
func (g *GEMM) Device() *Device { return g.eng.Impl().Dev }

// SetWorkers bounds the number of goroutines executing independent
// work-groups per kernel launch (0 = GOMAXPROCS, 1 = serial). Results
// are identical for every setting; only wall-clock time changes. Safe
// to call concurrently with Runs: in-flight calls finish with the old
// setting, each plan's next call picks up the new one.
func (g *GEMM) SetWorkers(n int) { g.eng.Impl().SetWorkers(n) }

// Close releases the engine's cached plans (device buffers, kernels).
// The routine remains usable; the next call rebuilds its plan.
func (g *GEMM) Close() { g.eng.Close() }

// Run computes C ← alpha·op(A)·op(B) + beta·C functionally on the
// simulated device. The element type T must match the routine's
// precision (float32 for Single, float64 for Double).
func Run[T Scalar](g *GEMM, transA, transB Transpose, alpha T, a, b *Matrix[T], beta T, c *Matrix[T]) error {
	return gemmimpl.EngineRunCtx(context.Background(), g.eng, transA, transB, alpha, a, b, beta, c)
}

// RunCtx is Run honoring a context: the call checks the deadline
// between execution phases (pack A, pack B, pack C, kernel, copy out)
// and returns the context's error — wrapped with the phase it abandoned
// — instead of starting the next phase. Committed work is already
// staged in device buffers, so an abandoned call leaves C untouched.
func RunCtx[T Scalar](ctx context.Context, g *GEMM, transA, transB Transpose, alpha T, a, b *Matrix[T], beta T, c *Matrix[T]) error {
	return gemmimpl.EngineRunCtx(ctx, g.eng, transA, transB, alpha, a, b, beta, c)
}

// Run is a convenience method for float64 (DGEMM) routines.
func (g *GEMM) Run(transA, transB Transpose, alpha float64, a, b *Matrix[float64], beta float64, c *Matrix[float64]) error {
	return gemmimpl.EngineRunCtx(context.Background(), g.eng, transA, transB, alpha, a, b, beta, c)
}

// RunCtx is the context-honoring variant of Run (see the package-level
// RunCtx).
func (g *GEMM) RunCtx(ctx context.Context, transA, transB Transpose, alpha float64, a, b *Matrix[float64], beta float64, c *Matrix[float64]) error {
	return gemmimpl.EngineRunCtx(ctx, g.eng, transA, transB, alpha, a, b, beta, c)
}

// RunSingle is the float32 (SGEMM) counterpart of Run.
func (g *GEMM) RunSingle(transA, transB Transpose, alpha float32, a, b *Matrix[float32], beta float32, c *Matrix[float32]) error {
	return gemmimpl.EngineRunCtx(context.Background(), g.eng, transA, transB, alpha, a, b, beta, c)
}

// RunSingleCtx is the context-honoring variant of RunSingle.
func (g *GEMM) RunSingleCtx(ctx context.Context, transA, transB Transpose, alpha float32, a, b *Matrix[float32], beta float32, c *Matrix[float32]) error {
	return gemmimpl.EngineRunCtx(ctx, g.eng, transA, transB, alpha, a, b, beta, c)
}

// GEMMCall is one multiplication of a batch:
// C ← Alpha·op(A)·op(B) + Beta·C.
type GEMMCall[T Scalar] = gemmimpl.Call[T]

// RunBatch executes the calls in order through g's execution engine,
// stopping at the first error. Calls that share a padded problem shape
// reuse one plan, and consecutive calls with an unchanged A or B skip
// that operand's copy — the intended API for repeated GEMM traffic
// (e.g. one weight matrix against a stream of inputs).
func RunBatch[T Scalar](g *GEMM, calls []GEMMCall[T]) error {
	return gemmimpl.RunBatchCtx(context.Background(), g.eng, calls)
}

// RunBatchCtx is RunBatch honoring a context: the batch stops with the
// context's error at the first call (or phase within a call) that finds
// it expired.
func RunBatchCtx[T Scalar](ctx context.Context, g *GEMM, calls []GEMMCall[T]) error {
	return gemmimpl.RunBatchCtx(ctx, g.eng, calls)
}

// StridedBatch describes a strided-batched GEMM: Count same-shape
// multiplications C_i ← Alpha·op(A_i)·op(B_i) + Beta·C_i whose
// operands sit at fixed element strides inside three contiguous slabs
// (the cuBLAS gemmStridedBatched convention). StrideA or StrideB may
// be 0 to broadcast one operand — e.g. one weight matrix against a
// stream of inputs — in which case its pack runs once for the whole
// batch. See GEMMStridedBatched and PoolGEMMStridedBatched.
type StridedBatch[T Scalar] = batch.Strided[T]

// GEMMStridedBatched executes the batch on g's engine: the plan for
// the batch's padded shape is claimed once, every item runs
// back-to-back on its warm device state, and warm batches allocate
// nothing in the kernel phase (the work-group state is free-listed).
// Results are bit-identical to looping Run over the items.
func GEMMStridedBatched[T Scalar](g *GEMM, sb *StridedBatch[T]) error {
	return gemmimpl.EngineRunStridedCtx(context.Background(), g.eng, sb)
}

// GEMMStridedBatchedCtx is GEMMStridedBatched honoring a context: the
// deadline is checked at every phase boundary of every item, and a
// cancelled batch reports the index of the item it stopped at.
func GEMMStridedBatchedCtx[T Scalar](ctx context.Context, g *GEMM, sb *StridedBatch[T]) error {
	return gemmimpl.EngineRunStridedCtx(ctx, g.eng, sb)
}

// ModelGFlops returns the modeled performance of the full routine
// (kernel plus copy overhead) for an m×n×k problem.
func (g *GEMM) ModelGFlops(m, n, k int) (float64, error) {
	return g.eng.Impl().GFlops(m, n, k)
}

// Reference computes C ← alpha·op(A)·op(B) + beta·C with the pure-Go
// reference implementation (the correctness oracle); useful for
// verifying results in examples and downstream tests.
func Reference[T Scalar](transA, transB Transpose, alpha T, a, b *Matrix[T], beta T, c *Matrix[T]) {
	blas.GEMMParallel(transA, transB, alpha, a, b, beta, c)
}

// MaxRelDiff returns the maximum elementwise relative difference
// between two matrices.
func MaxRelDiff[T Scalar](a, b *Matrix[T]) float64 { return matrix.MaxRelDiff(a, b) }

// Tolerance returns a verification tolerance for an accumulation depth
// k in the given precision.
func Tolerance(p Precision, k int) float64 { return matrix.Tolerance(p, k) }
