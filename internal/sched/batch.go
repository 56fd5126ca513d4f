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
// Items are assigned whole, so results are bit-identical to looping
// single GEMMs. Rung 2 of the ladder runs the whole batch on one warm
// plan of the healthiest member; rung 3 loops the pure-Go BLAS.
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
			return assignBatch(sb, live, prec)
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

// assignBatch deals contiguous index spans to the live members,
// proportional to each member's modeled per-item throughput; an item
// is a tile at (index, 0) of the item's full m×n shape, which also
// prices its model time and failure accounting. Stealing rebalances
// whatever the model got wrong.
func assignBatch[T matrix.Scalar](sb *batch.Strided[T], live []*member, prec matrix.Precision) [][]*tile {
	weights := make([]float64, len(live))
	for i, mb := range live {
		if bd, err := mb.impl(prec).Time(sb.M, sb.N, sb.K); err == nil && bd.TotalSeconds > 0 {
			weights[i] = 1 / bd.TotalSeconds
		}
	}
	spans := batch.Partition(sb.Count, weights)
	queues := make([][]*tile, len(live))
	for i, sp := range spans {
		q := make([]*tile, 0, sp.Len())
		for idx := sp.Lo; idx < sp.Hi; idx++ {
			q = append(q, &tile{i0: idx, j0: 0, th: sb.M, tw: sb.N})
		}
		queues[i] = q
	}
	return queues
}
