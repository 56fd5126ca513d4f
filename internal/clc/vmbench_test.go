package clc

import (
	"slices"
	"testing"
	"time"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// benchKernel builds the kernel-phase workload the clcheck/verify path
// executes: a generated BA double kernel with shared __local staging at
// a multi-work-group size.
func benchKernel(tb testing.TB, forceInterp bool) (*BoundKernel, *clsim.Queue, clsim.NDRange) {
	return benchKernelOpt(tb, forceInterp, true)
}

func benchKernelOpt(tb testing.TB, forceInterp, optimize bool) (*BoundKernel, *clsim.Queue, clsim.NDRange) {
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 16, Nwg: 16, Kwg: 8, MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	src, err := p.GenerateSource()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		tb.Fatal(err)
	}
	m, n, k := 32, 32, 16
	a := make([]float64, k*m)
	bb := make([]float64, k*n)
	c := make([]float64, m*n)
	for i := range a {
		a[i] = float64(i%7) * 0.25
	}
	for i := range bb {
		bb[i] = float64(i%5) * 0.5
	}
	bound, err := kern.Bind(m, n, k, 1.0, 0.0, a, bb, c)
	if err != nil {
		tb.Fatal(err)
	}
	bound.SetInterp(forceInterp)
	bound.SetOptimize(optimize)
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	return bound, q, nd
}

// BenchmarkInterpVsVM compares the AST interpreter against the bytecode
// VM — both the raw compiler output ("vm-noopt", the PR 9 baseline) and
// the optimized program ("vm") — on the same generated-GEMM kernel
// phase. CI smokes this trio so the VM's throughput claims stay
// continuously checked.
func BenchmarkInterpVsVM(b *testing.B) {
	for _, eng := range []struct {
		name                  string
		forceInterp, optimize bool
	}{{"interp", true, false}, {"vm-noopt", false, false}, {"vm", false, true}} {
		b.Run(eng.name, func(b *testing.B) {
			bound, q, nd := benchKernelOpt(b, eng.forceInterp, eng.optimize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Run(bound, nd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVMSpeedupOverInterpreter pins the tentpole claims: the optimized
// bytecode VM must run the kernel-phase workload at least 10× faster
// than the AST interpreter, and at least 2× faster than the raw
// (unoptimized) bytecode — the PR 9 VM. Wall-clock thresholds are
// inherently machine-sensitive, so both bars sit below the typical
// measured ratios. The three engines are timed interleaved, rotating
// which goes first, and each ratio is the median over the samples of
// back-to-back timings, so host drift between samples cancels.
func TestVMSpeedupOverInterpreter(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement")
	}
	type engine struct {
		bound *BoundKernel
		q     *clsim.Queue
		nd    clsim.NDRange
		last  time.Duration
	}
	var eng []*engine // interp, vm-noopt, vm
	for _, e := range []struct{ forceInterp, optimize bool }{{true, false}, {false, false}, {false, true}} {
		bound, q, nd := benchKernelOpt(t, e.forceInterp, e.optimize)
		// Warm up pools and caches.
		if err := q.Run(bound, nd); err != nil {
			t.Fatal(err)
		}
		eng = append(eng, &engine{bound: bound, q: q, nd: nd})
	}
	const samples, iters = 15, 3
	var overInterp, overRaw []float64
	for s := 0; s < samples; s++ {
		for k := range eng {
			e := eng[(s+k)%len(eng)]
			start := time.Now()
			for i := 0; i < iters; i++ {
				if err := e.q.Run(e.bound, e.nd); err != nil {
					t.Fatal(err)
				}
			}
			e.last = time.Since(start)
		}
		vm := float64(eng[2].last)
		overInterp = append(overInterp, float64(eng[0].last)/vm)
		overRaw = append(overRaw, float64(eng[1].last)/vm)
	}
	median := func(xs []float64) float64 {
		slices.Sort(xs)
		return xs[len(xs)/2]
	}
	ratio, raw := median(overInterp), median(overRaw)
	t.Logf("median of %d interleaved samples of %d runs: %.1fx over interp, %.1fx over noopt", samples, iters, ratio, raw)
	if ratio < 10 {
		t.Errorf("optimized VM speedup %.2fx over interpreter, want >= 10x", ratio)
	}
	if raw < 2 {
		t.Errorf("optimized VM speedup %.2fx over unoptimized bytecode, want >= 2x", raw)
	}
}
