// Strided-batched execution across the pool: the batch INDEX is the
// only partitioned dimension. Each item is one unit of the pool job —
// one whole GEMM on exactly one member — so every element of every C_i
// keeps the accumulation order of a single-device run and the pool
// result is bit-identical to the loop-of-GEMMs oracle.
package sched

import (
	"context"
	"fmt"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
)

// RunStridedBatchedCtx executes C_i ← alpha·op(A_i)·op(B_i) + beta·C_i
// for every item of the batch across the pool, honoring the context.
// Each item is one whole unit, dealt like a tile by assign, so results
// are bit-identical to looping single GEMMs. Rung 2 of the ladder runs
// the whole batch on one warm plan of the healthiest member; rung 3
// loops the pure-Go BLAS.
func RunStridedBatchedCtx[T matrix.Scalar](ctx context.Context, p *Pool, sb *batch.Strided[T]) error {
	items, err := sb.Items()
	if err != nil {
		return err
	}
	regions := make([]*matrix.Matrix[T], len(items))
	for i := range items {
		regions[i] = items[i].C
	}
	return runLadder(ctx, p, &job[T]{
		ta: sb.TransA, tb: sb.TransB, alpha: sb.Alpha, beta: sb.Beta,
		m: sb.M, n: sb.N, k: sb.K,
		span: "sched.batch.item",
		label: func(u *tile) (string, string) {
			return "item", fmt.Sprintf("%d/%d", u.i0, sb.Count)
		},
		queues: func(live []*member, prec matrix.Precision) [][]*tile {
			units := make([]*tile, len(items))
			for idx := range units {
				units[idx] = &tile{i0: idx, th: sb.M, tw: sb.N}
			}
			return assign(units, live, prec, sb.K)
		},
		operands: func(u *tile) (a, b, c *matrix.Matrix[T]) {
			it := &items[u.i0]
			return it.A, it.B, it.C
		},
		regions: regions,
		whole: func(ctx context.Context, e *gemmimpl.Engine) error {
			return gemmimpl.EngineRunStridedCtx(ctx, e, sb)
		},
		reference: func() {
			for _, it := range items {
				blas.GEMM(sb.TransA, sb.TransB, sb.Alpha, it.A, it.B, sb.Beta, it.C)
			}
		},
	})
}
