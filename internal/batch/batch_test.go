package batch

import (
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/matrix"
)

func validBatch(count int) *Strided[float64] {
	const m, n, k = 3, 4, 2
	return &Strided[float64]{
		M: m, N: n, K: k, Count: count, Alpha: 1,
		Order: matrix.RowMajor,
		A:     make([]float64, m*k*count), StrideA: m * k,
		B: make([]float64, k*n*count), StrideB: k * n,
		C: make([]float64, m*n*count), StrideC: m * n,
	}
}

func TestValidate(t *testing.T) {
	if err := validBatch(4).Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Strided[float64])
	}{
		{"zero count", func(sb *Strided[float64]) { sb.Count = 0 }},
		{"negative dim", func(sb *Strided[float64]) { sb.K = -1 }},
		{"negative stride", func(sb *Strided[float64]) { sb.StrideA = -2 }},
		{"short A stride", func(sb *Strided[float64]) { sb.StrideA = sb.M*sb.K - 1 }},
		{"short A slab", func(sb *Strided[float64]) { sb.A = sb.A[:len(sb.A)-1] }},
		{"short B slab", func(sb *Strided[float64]) { sb.B = sb.B[:1] }},
		{"short C slab", func(sb *Strided[float64]) { sb.C = sb.C[:len(sb.C)-1] }},
		{"zero C stride overlaps", func(sb *Strided[float64]) { sb.StrideC = 0 }},
	}
	for _, tc := range cases {
		sb := validBatch(4)
		tc.mut(sb)
		if err := sb.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the batch", tc.name)
		}
	}
	// Zero A/B strides broadcast and are legal; a zero C stride is fine
	// for a single-item batch.
	sb := validBatch(4)
	sb.StrideA, sb.StrideB = 0, 0
	sb.A, sb.B = sb.A[:sb.M*sb.K], sb.B[:sb.K*sb.N]
	if err := sb.Validate(); err != nil {
		t.Errorf("broadcast batch rejected: %v", err)
	}
	one := validBatch(1)
	one.StrideC = 0
	if err := one.Validate(); err != nil {
		t.Errorf("single-item zero C stride rejected: %v", err)
	}
}

func TestItemsShapesAndSharing(t *testing.T) {
	sb := validBatch(3)
	sb.TransA = blas.Trans
	for i := range sb.A {
		sb.A[i] = float64(i)
	}
	items, err := sb.Items()
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 3 {
		t.Fatalf("%d items, want 3", len(items))
	}
	// op(A) is M×K, stored K×M under Trans.
	if items[0].A.Rows != sb.K || items[0].A.Cols != sb.M {
		t.Errorf("transposed A item is %dx%d, want %dx%d", items[0].A.Rows, items[0].A.Cols, sb.K, sb.M)
	}
	// Item headers wrap the slab (no copies): writing through the item
	// must land in the slab.
	items[1].C.Set(0, 0, 42)
	if sb.C[1*sb.StrideC] != 42 {
		t.Error("item C header does not alias the slab")
	}
	// Items are cached: a second call returns the same headers.
	again, _ := sb.Items()
	if &again[0] != &items[0] {
		t.Error("Items rebuilt headers on a warm call")
	}
}

func TestItemsBroadcast(t *testing.T) {
	sb := validBatch(5)
	sb.StrideA = 0
	sb.A = sb.A[:sb.M*sb.K]
	items, err := sb.Items()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(items); i++ {
		if &items[i].A.Data[0] != &items[0].A.Data[0] {
			t.Fatalf("item %d does not share the broadcast A", i)
		}
	}
}

func TestFlopCount(t *testing.T) {
	sb := validBatch(6)
	want := blas.FlopCount(sb.M, sb.N, sb.K) * 6
	if got := sb.FlopCount(); got != want {
		t.Errorf("FlopCount = %g, want %g", got, want)
	}
}
