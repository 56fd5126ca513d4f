package gemmimpl

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"oclgemm/internal/batch"
	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// randStrided builds a count-item strided batch of small row-major
// matrices with contiguous slabs.
func randStrided(m, n, k, count int, beta float64, seed int64) *batch.Strided[float64] {
	rng := rand.New(rand.NewSource(seed))
	fill := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Float64()*2 - 1
		}
		return out
	}
	return &batch.Strided[float64]{
		M: m, N: n, K: k, Count: count,
		Alpha: 1.25, Beta: beta,
		Order: matrix.RowMajor,
		A:     fill(m * k * count), StrideA: m * k,
		B: fill(k * n * count), StrideB: k * n,
		C: fill(m * n * count), StrideC: m * n,
		TransA: blas.NoTrans, TransB: blas.NoTrans,
	}
}

// TestRunStridedMatchesLoop checks the plan-level strided path against
// looping RunCtx on the same plan (bit-identical, same plan both ways).
func TestRunStridedMatchesLoop(t *testing.T) {
	im := testImpl(t)
	const m, n, k, count = 9, 7, 5, 8
	sb := randStrided(m, n, k, count, 0.5, 1)
	oracle := randStrided(m, n, k, count, 0.5, 1) // same seed: same data

	pl, err := NewPlan[float64](im, m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	defer pl.Close()
	items, err := oracle.Items()
	if err != nil {
		t.Fatal(err)
	}
	for i := range items {
		it := &items[i]
		if err := pl.RunCtx(context.Background(), oracle.TransA, oracle.TransB, oracle.Alpha, it.A, it.B, oracle.Beta, it.C); err != nil {
			t.Fatal(err)
		}
	}
	if err := pl.RunStridedCtx(context.Background(), sb); err != nil {
		t.Fatal(err)
	}
	for i, v := range sb.C {
		if v != oracle.C[i] {
			t.Fatalf("slab element %d: strided %v, loop %v", i, v, oracle.C[i])
		}
	}
}

// TestStridedBatchOnePlanZeroAllocs is the ISSUE's amortization
// acceptance gate: a warm batched call of ≥64 small matrices claims
// exactly one plan (one cold build, everything after a cache hit) and
// allocates nothing — work-group state stays in the plan queue's
// worker frame, not the heap.
func TestStridedBatchOnePlanZeroAllocs(t *testing.T) {
	im := testImpl(t)
	im.SetWorkers(1) // deterministic allocation accounting
	reg := obs.NewRegistry()
	im.SetObservability(reg, nil)
	eng := NewEngine(im)
	defer eng.Close()
	const m, n, k, count = 8, 8, 4, 64
	sb := randStrided(m, n, k, count, 0, 2)

	// Cold call: exactly one plan build for the whole 64-item batch.
	if err := EngineRunStridedCtx(context.Background(), eng, sb); err != nil {
		t.Fatal(err)
	}
	cache := eng.Cache64()
	if got := cache.Len(); got != 1 {
		t.Fatalf("after one %d-item batch the cache holds %d plans, want 1", count, got)
	}
	snap := reg.Snapshot()
	if miss := snap.Counters["gemm.plan.miss"]; miss != 1 {
		t.Fatalf("batch of %d built %d plans, want exactly 1", count, miss)
	}

	// Warm calls: the kernel state kept in the plan queue's worker
	// frame must be reused, not rebuilt per item...
	allocs := testing.AllocsPerRun(3, func() {
		if err := EngineRunStridedCtx(context.Background(), eng, sb); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm %d-item batch allocated %.1f objects/op, want 0", count, allocs)
	}
	e, err := cache.acquire(context.Background(), m, n, k)
	if err != nil {
		t.Fatal(err)
	}
	pl := e.plan
	defer cache.release(e)
	// ...and the warm kernel phase itself performs zero heap
	// allocations per launch.
	allocs = testing.AllocsPerRun(10, func() {
		if err := pl.q.RunLockstep(pl.kern, pl.kern.NDRange()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm batched kernel phase allocated %.1f objects/op, want 0", allocs)
	}
}

// TestRunStridedCtxReportsItemIndex pins the error chain: a batch
// cancelled mid-flight names the item it stopped at.
func TestRunStridedCtxReportsItemIndex(t *testing.T) {
	im := testImpl(t)
	eng := NewEngine(im)
	defer eng.Close()
	sb := randStrided(6, 6, 4, 4, 0, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := EngineRunStridedCtx(ctx, eng, sb)
	if err == nil {
		t.Fatal("cancelled batch returned nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if want := "batch item 0"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the item (%q)", err, want)
	}
}
