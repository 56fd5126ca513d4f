package clc

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
)

// benchKernel builds the kernel-phase workload the clcheck/verify path
// executes: the generated benchParams kernel (BA double with shared
// __local staging) at a multi-work-group size, on the optimized or the
// raw bytecode.
func benchKernel(tb testing.TB, optimize bool) (*BoundKernel, *clsim.Queue, clsim.NDRange) {
	p := benchParams()
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
	bound.SetOptimize(optimize)
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	return bound, newQueue(), nd
}

// BenchmarkVM times the raw compiler output ("vm-noopt") and the
// optimized program ("vm") on the same generated-GEMM kernel phase. CI
// smokes both so the optimizer's throughput claim stays continuously
// checked.
func BenchmarkVM(b *testing.B) {
	for _, eng := range []struct {
		name     string
		optimize bool
	}{{"vm-noopt", false}, {"vm", true}} {
		b.Run(eng.name, func(b *testing.B) {
			bound, q, nd := benchKernel(b, eng.optimize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := q.Run(bound, nd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVMSpeedupOverRawBytecode pins the optimizer's claim: the
// optimized bytecode must run the kernel-phase workload at least 2×
// faster than the raw (unoptimized) bytecode. Wall-clock thresholds are
// inherently machine-sensitive, so the bar sits below the typical
// measured ratio. The two programs are timed interleaved, alternating
// which goes first, and the ratio is the median over the samples of
// back-to-back timings, so host drift between samples cancels.
func TestVMSpeedupOverRawBytecode(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement")
	}
	type engine struct {
		bound *BoundKernel
		q     *clsim.Queue
		nd    clsim.NDRange
		last  time.Duration
	}
	var eng []*engine // vm-noopt, vm
	for _, optimize := range []bool{false, true} {
		bound, q, nd := benchKernel(t, optimize)
		// Warm up pools and caches.
		if err := q.Run(bound, nd); err != nil {
			t.Fatal(err)
		}
		eng = append(eng, &engine{bound: bound, q: q, nd: nd})
	}
	const samples, iters = 15, 3
	var overRaw []float64
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
		overRaw = append(overRaw, float64(eng[0].last)/float64(eng[1].last))
	}
	slices.Sort(overRaw)
	raw := overRaw[len(overRaw)/2]
	t.Logf("median of %d interleaved samples of %d runs: %.1fx over noopt", samples, iters, raw)
	if raw < 2 {
		t.Errorf("optimized VM speedup %.2fx over unoptimized bytecode, want >= 2x", raw)
	}
}

// laneBytes is one group's lane storage for n items of p: the integer
// and float register rows (scratch registers included), the per-item
// state and the __private array slabs.
func laneBytes(p *compiledKernel, n int) int {
	b := 8*n*(p.irows+p.frows) + n*(4+1+8+4+2*8)
	for _, d := range p.defs {
		b += 8 * n * d.total
	}
	return b
}

// TestLaneStorageAllocs bounds what warm launches of the benchKernel
// workload allocate on one queue. Each worker frame keeps its lane
// storage in its Scratch slot, so over a run of launches a frame builds
// it at most once (on the first group it runs: a frame that ran none in
// the warm-up launch is still cold), and every launch otherwise costs
// only its goroutines, under a fixed slack. Two GC cycles first empty
// any sync.Pool, as the garbage of a tuning run does between launches,
// so a pooled cache cannot hide per-item register files (a 152-byte
// value per register per parked item allocated 257 KB here).
func TestLaneStorageAllocs(t *testing.T) {
	bound, q, nd := benchKernel(t, true)
	if err := q.Run(bound, nd); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	const launches = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < launches; i++ {
		if err := q.Run(bound, nd); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	workers := min(runtime.GOMAXPROCS(0), nd.TotalGroups())
	// A warm launch measured 288 B on 2 workers and 512 B on 4.
	const slack = 1 << 10
	limit := uint64(workers*laneBytes(bound.progOpt, nd.GroupSize()) + launches*slack)
	t.Logf("%d warm launches allocated %d bytes; bound %d (%d workers)", launches, got, limit, workers)
	if got > limit {
		t.Errorf("%d warm launches allocated %d bytes, want <= %d: one group's lane storage per worker plus %d per launch",
			launches, got, limit, slack)
	}
}
