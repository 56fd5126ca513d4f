// Strided-batched execution: count same-shape GEMMs amortizing ONE
// plan claim, one mutex hold and one set of packed-operand
// fingerprints across the whole batch. Each item still runs the full
// pack→kernel→copy-out pipeline (results are bit-identical to a loop
// of single calls — the kernel accumulates in the same k-order), but
// the per-call overhead a loop of Engine runs would pay — cache
// lookup, entry claim, lock, workers reload — is paid once, and a
// broadcast operand (stride 0) packs once for the whole batch via the
// existing fingerprint reuse.
package gemmimpl

import (
	"context"
	"fmt"

	"oclgemm/internal/batch"
	"oclgemm/internal/matrix"
)

// RunStridedCtx executes every item of the batch back-to-back under a
// single lock hold on the plan. The batch's shape must pad to the
// plan's shape. A failed or cancelled item stops the batch and reports
// its index; earlier items have already committed their results.
func (pl *Plan[T]) RunStridedCtx(ctx context.Context, sb *batch.Strided[T]) error {
	items, err := sb.Items()
	if err != nil {
		return err
	}
	mp, np, kp := pl.im.PaddedDims(sb.M, sb.N, sb.K)
	if mp != pl.Mp || np != pl.Np || kp != pl.Kp {
		return fmt.Errorf("gemmimpl: batch %dx%dx%d pads to %dx%dx%d, plan holds %dx%dx%d",
			sb.M, sb.N, sb.K, mp, np, kp, pl.Mp, pl.Np, pl.Kp)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	for i := range items {
		it := &items[i]
		if err := pl.runLocked(ctx, sb.TransA, sb.TransB, sb.Alpha, it.A, it.B, sb.Beta, it.C, sb.M, sb.N); err != nil {
			return fmt.Errorf("batch item %d: %w", i, err)
		}
	}
	return nil
}

// RunStridedCtx executes a strided batch through the cache: the plan
// for the batch's padded shape is claimed exactly once (built on first
// use), every item runs on it back-to-back, and the claim is released
// when the batch completes — one plan build and one cache transaction
// regardless of Count.
func (pc *PlanCache[T]) RunStridedCtx(ctx context.Context, sb *batch.Strided[T]) error {
	if _, err := sb.Items(); err != nil {
		return err
	}
	e, err := pc.acquire(ctx, sb.M, sb.N, sb.K)
	if err != nil {
		return err
	}
	err = e.plan.RunStridedCtx(ctx, sb)
	pc.release(e)
	return err
}

// EngineRunStridedCtx is the engine entry point for strided-batched
// GEMM: one plan claim for the whole batch, per-item context checks at
// every phase boundary. Results are bit-identical to looping
// EngineRunCtx over the items.
func EngineRunStridedCtx[T matrix.Scalar](ctx context.Context, e *Engine, sb *batch.Strided[T]) error {
	switch s := any(sb).(type) {
	case *batch.Strided[float64]:
		return e.c64.RunStridedCtx(ctx, s)
	case *batch.Strided[float32]:
		return e.c32.RunStridedCtx(ctx, s)
	}
	return fmt.Errorf("gemmimpl: unsupported batch element type %T", sb)
}
