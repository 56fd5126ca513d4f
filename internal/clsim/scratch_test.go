package clsim_test

import (
	"math/rand"
	"testing"

	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
)

// scratchGEMM builds a native GEMM kernel of blocking mwg×8×4 on a
// 16×16×8 problem, with the result it must write into c.
func scratchGEMM(t *testing.T, mwg int, seed int64) (k *kernels.GEMM[float64], c, want []float64) {
	t.Helper()
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: mwg, Nwg: 8, Kwg: 4,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	const m, n, kk = 16, 16, 8
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[float64](m, kk, matrix.RowMajor)
	b := matrix.New[float64](kk, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	ref := matrix.New[float64](m, n, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, 1, a, b, 0, ref)
	at := matrix.Pack(a, true, kk, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, kk, n, p.Kwg, p.Nwg, p.LayoutB)
	c = make([]float64, m*n)
	k, err := kernels.NewGEMM(p, m, n, kk, 1, at.Data, bp.Data, 0, c)
	if err != nil {
		t.Fatal(err)
	}
	return k, c, ref.Data
}

// A worker frame's Scratch slot outlives the launch: a kernel
// relaunched on the same queue finds its state there and allocates
// nothing. Another kernel launched on the queue in between (here with
// a larger tile, which the first kernel's slabs cannot hold) builds its
// own state instead of running on the first kernel's, and the first
// kernel then rebuilds its own.
func TestScratchKeptAcrossLaunches(t *testing.T) {
	for _, workers := range []int{1, 2} {
		q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
		q.Workers = workers
		k8, c8, want8 := scratchGEMM(t, 8, 1)
		k16, c16, want16 := scratchGEMM(t, 16, 2)
		run := func(k *kernels.GEMM[float64], c, want []float64) {
			t.Helper()
			clear(c)
			if err := q.RunLockstep(k, k.NDRange()); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range want {
				if c[i] != want[i] {
					t.Fatalf("workers=%d: %s: C[%d] = %v, want %v", workers, k.Name(), i, c[i], want[i])
				}
			}
		}
		run(k8, c8, want8)
		if workers == 1 {
			// The parallel path allocates its goroutines, not state.
			if allocs := testing.AllocsPerRun(5, func() { run(k8, c8, want8) }); allocs != 0 {
				t.Errorf("second launch on the queue allocated %.1f objects, want 0", allocs)
			}
		}
		run(k16, c16, want16)
		run(k8, c8, want8)
	}
}
