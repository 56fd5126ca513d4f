// Package batch describes strided-batched GEMM workloads: count
// same-shape multiplications C_i ← α·op(A_i)·op(B_i) + β·C_i whose
// operands live at fixed element strides inside three contiguous
// slabs, the cuBLAS gemmStridedBatched convention. The descriptor is
// pure data — validation, per-item matrix headers and flop accounting
// — so the execution layers (gemmimpl plans, the sched pool, the serve
// wire protocol) can all share one shape of truth without import
// cycles.
//
// The ML-serving traffic shape this models is millions of small
// matrices: one plan and one set of packed-operand fingerprints are
// amortized across the whole batch, and a zero A or B stride
// broadcasts that operand (one weight matrix against a stream of
// inputs) so its pack is skipped for every item after the first.
package batch

import (
	"fmt"
	"sync"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

// Strided describes count same-shape GEMMs over three strided slabs:
//
//	C_i ← Alpha·op(A_i)·op(B_i) + Beta·C_i,  i = 0..Count-1
//	A_i = A[i*StrideA : i*StrideA + |A|]      (|A| = op-source elements)
//
// Every item has the same M, N, K, transposes, scalars and storage
// Order; only the operand data differ. StrideA or StrideB may be 0 to
// share (broadcast) that operand across the batch; StrideC must give
// every item a disjoint result region.
//
// A Strided must not be copied after first use: the cached item
// headers ride a sync.Once (go vet's copylocks check flags the copy).
// Build a fresh descriptor to point the same slabs elsewhere.
type Strided[T matrix.Scalar] struct {
	TransA, TransB blas.Transpose
	Alpha, Beta    T
	// M, N, K are the per-item problem dimensions of op(A)·op(B).
	M, N, K int
	// Order is the storage order of every operand matrix.
	Order matrix.Order
	// A, B, C are the operand slabs; StrideA/StrideB/StrideC are the
	// element offsets between consecutive items (≥ the item's element
	// count, or 0 for A/B to broadcast one operand to every item).
	A, B, C                   []T
	StrideA, StrideB, StrideC int
	// Count is the number of GEMMs in the batch.
	Count int

	// items caches the per-item matrix headers so warm batched calls
	// rebuild nothing (the zero-alloc guarantee covers the whole warm
	// call, headers included).
	itemsOnce sync.Once
	items     []Item[T]
	itemsErr  error
}

// Item is one batch member's operand views into the slabs.
type Item[T matrix.Scalar] struct {
	A, B, C *matrix.Matrix[T]
}

// OperandElems returns the per-item element counts |A|, |B|, |C| for
// the descriptor's shape: op(A) is M×K so its source holds M·K
// elements regardless of transpose, likewise B with K·N and C with
// M·N.
func (sb *Strided[T]) OperandElems() (na, nb, nc int) {
	return sb.M * sb.K, sb.K * sb.N, sb.M * sb.N
}

// Validate checks the descriptor: positive shape and count, strides
// that cover each item, non-overlapping C regions, and slabs long
// enough for the last item.
func (sb *Strided[T]) Validate() error {
	if sb.Count <= 0 {
		return fmt.Errorf("batch: non-positive count %d", sb.Count)
	}
	if sb.M <= 0 || sb.N <= 0 || sb.K <= 0 {
		return fmt.Errorf("batch: non-positive dimensions %dx%dx%d", sb.M, sb.N, sb.K)
	}
	na, nb, nc := sb.OperandElems()
	check := func(name string, slab []T, stride, elems int, allowShared bool) error {
		if stride < 0 {
			return fmt.Errorf("batch: negative %s stride %d", name, stride)
		}
		if stride == 0 {
			if !allowShared && sb.Count > 1 {
				return fmt.Errorf("batch: %s stride 0 would overlap %d results", name, sb.Count)
			}
		} else if stride < elems {
			return fmt.Errorf("batch: %s stride %d < item size %d", name, stride, elems)
		}
		need := (sb.Count-1)*stride + elems
		if len(slab) < need {
			return fmt.Errorf("batch: %s slab holds %d elements, needs %d for %d items", name, len(slab), need, sb.Count)
		}
		return nil
	}
	if err := check("A", sb.A, sb.StrideA, na, true); err != nil {
		return err
	}
	if err := check("B", sb.B, sb.StrideB, nb, true); err != nil {
		return err
	}
	return check("C", sb.C, sb.StrideC, nc, false)
}

// Items returns the cached per-item matrix headers, building them on
// first use. The A_i header is the stored shape of op(A) — M×K when
// TransA is NoTrans, K×M when Trans — wrapping exactly the item's
// elements of the slab, so downstream layers read and write nothing
// outside the item.
func (sb *Strided[T]) Items() ([]Item[T], error) {
	sb.itemsOnce.Do(func() {
		if err := sb.Validate(); err != nil {
			sb.itemsErr = err
			return
		}
		na, nb, nc := sb.OperandElems()
		ar, ac := sb.M, sb.K
		if sb.TransA == blas.Trans {
			ar, ac = ac, ar
		}
		br, bc := sb.K, sb.N
		if sb.TransB == blas.Trans {
			br, bc = bc, br
		}
		sb.items = make([]Item[T], sb.Count)
		for i := range sb.items {
			sb.items[i] = Item[T]{
				A: matrix.FromSlice(ar, ac, sb.Order, sb.A[i*sb.StrideA:i*sb.StrideA+na]),
				B: matrix.FromSlice(br, bc, sb.Order, sb.B[i*sb.StrideB:i*sb.StrideB+nb]),
				C: matrix.FromSlice(sb.M, sb.N, sb.Order, sb.C[i*sb.StrideC:i*sb.StrideC+nc]),
			}
		}
	})
	return sb.items, sb.itemsErr
}

// FlopCount returns the arithmetic volume of the whole batch
// (2·m·n·k per item).
func (sb *Strided[T]) FlopCount() float64 {
	return blas.FlopCount(sb.M, sb.N, sb.K) * float64(sb.Count)
}
