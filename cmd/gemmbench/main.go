// Command gemmbench regenerates the paper's evaluation: Tables I-III,
// Figures 7-11, and the ablations the analysis calls out. Output is the
// same rows/series the paper reports, as aligned text or CSV.
//
// Usage:
//
//	gemmbench -exp all
//	gemmbench -exp table2 -budget 25000
//	gemmbench -exp fig9 -csv
//
// The observability flags run an instrumented functional benchmark
// instead of the modeled experiments:
//
//	gemmbench -metrics                 per-phase pack/kernel/copy table
//	gemmbench -pool -metrics           same, partitioned across the pool
//	gemmbench -trace out.jsonl         span dump, one JSON object per line
//	gemmbench -bench-out BENCH_gemm.json   machine-readable report
//
// The micro-kernel sweep times a warm functional GEMM with each of the
// paper's 12 Table II kernels, verifies each against the internal/blas
// reference, and prints its GFlop/s and stride mode:
//
//	gemmbench -micro
//	gemmbench -micro -microsize 512
//
// The chaos mode smoke-tests the resilient serve path: a pool run under
// a deterministic fault injector (transient launch failures, timeouts,
// a scripted mid-run device death with a later revival), verifying
// every call returns a bit-identical result or a typed error before its
// deadline:
//
//	gemmbench -chaos
//	gemmbench -chaos -chaosseed 7 -chaosruns 8
//
// The batched mode times one strided batch three ways — the warm
// GEMMStridedBatched path, the loop-of-single-GEMMs baseline it
// amortizes, and the full serve wire path (loopback HTTP to
// /v1/gemm/batched) — verifies all three produce bit-identical slabs,
// and appends the per-leg throughputs to the BENCH_gemm.json report:
//
//	gemmbench -batched 64x64x32x128
//	gemmbench -batched 8x8x4x256 -bench-out BENCH_gemm.json
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"oclgemm"
	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/experiments"
	"oclgemm/internal/faultinject"
	"oclgemm/internal/matrix"
	"oclgemm/internal/serve"
	"oclgemm/internal/tunedb"
)

// renderable is anything the harness can print.
type renderable interface {
	Render() string
	CSV() string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "gemmbench:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gemmbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: all, table1, table2, table3, fig7, fig8, fig9, fig10, fig11, ablation-lds, ablation-layout, bank-conflict, cypress, portability")
	budget := fs.Int("budget", 12000, "tuner stage-1 candidate budget per search")
	maxSize := fs.Int("maxsize", 8192, "largest stage-2 problem size")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
	pool := fs.Bool("pool", false, "partition one GEMM across the whole device pool and compare against the best single device")
	metrics := fs.Bool("metrics", false, "run the instrumented functional benchmark and print the metrics registry and per-phase breakdown")
	tracePath := fs.String("trace", "", "run the instrumented functional benchmark and dump its spans to this JSON-lines file")
	benchOut := fs.String("bench-out", "", "run the instrumented functional benchmark and write a BENCH_gemm.json report to this file")
	micro := fs.Bool("micro", false, "time a warm functional GEMM with each of the 12 paper Table II kernels, verify each against internal/blas and print GFlop/s per stride mode")
	microSize := fs.Int("microsize", 256, "square problem size for -micro")
	chaos := fs.Bool("chaos", false, "run the serve-path chaos smoke: pool DGEMMs under injected launch faults, a scripted device death and a later revival")
	chaosSeed := fs.Int64("chaosseed", 1, "fault-injection seed for -chaos")
	chaosRuns := fs.Int("chaosruns", 6, "number of pool runs for -chaos")
	batched := fs.String("batched", "", "time a strided batch MxNxKxCOUNT on the batched, loop and serve paths (e.g. 64x64x32x128)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *batched != "" {
		return runBatched(stdout, *batched, *benchOut)
	}

	if *chaos {
		return runChaos(stdout, *chaosSeed, *chaosRuns)
	}

	if *micro {
		return runMicro(stdout, *microSize)
	}

	if *metrics || *tracePath != "" || *benchOut != "" {
		return runInstrumented(stdout, *pool, *metrics, *tracePath, *benchOut)
	}

	if *pool {
		if err := runPool(stdout, *maxSize, *csv); err != nil {
			return fmt.Errorf("pool: %w", err)
		}
		return nil
	}

	s := experiments.NewSession(experiments.Config{MaxCandidates: *budget, MaxSize: *maxSize})

	type job struct {
		id  string
		run func() (renderable, error)
	}
	jobs := []job{
		{"table1", func() (renderable, error) { return s.Table1(), nil }},
		{"table2", func() (renderable, error) { return s.Table2() }},
		{"table3", func() (renderable, error) { return s.Table3() }},
		{"fig7", func() (renderable, error) { return s.Fig7(matrix.Double) }},
		{"fig7s", func() (renderable, error) { return s.Fig7(matrix.Single) }},
		{"fig8", func() (renderable, error) { return s.Fig8() }},
		{"fig9", func() (renderable, error) { return s.Fig9(matrix.Double) }},
		{"fig9s", func() (renderable, error) { return s.Fig9(matrix.Single) }},
		{"fig10", func() (renderable, error) { return s.Fig10(matrix.Double) }},
		{"fig10s", func() (renderable, error) { return s.Fig10(matrix.Single) }},
		{"fig11", func() (renderable, error) { return s.Fig11() }},
		{"ablation-lds", func() (renderable, error) { return s.AblationLocalMemory() }},
		{"ablation-layout", func() (renderable, error) { return s.AblationLayout() }},
		{"bank-conflict", func() (renderable, error) { return s.BankConflictSeries() }},
		{"cypress", func() (renderable, error) { return s.CypressComparison() }},
		{"portability", func() (renderable, error) { return s.PortabilityTable(matrix.Single) }},
		{"strategies", func() (renderable, error) { return s.StrategyComparison(matrix.Single, 2000) }},
	}

	want := strings.ToLower(*exp)
	matched := false
	for _, j := range jobs {
		if want != "all" && want != j.id &&
			!(want == "fig7" && j.id == "fig7s") &&
			!(want == "fig9" && j.id == "fig9s") &&
			!(want == "fig10" && j.id == "fig10s") {
			continue
		}
		matched = true
		start := time.Now()
		r, err := j.run()
		if err != nil {
			return fmt.Errorf("%s: %w", j.id, err)
		}
		if *csv {
			fmt.Fprint(stdout, r.CSV())
		} else {
			fmt.Fprint(stdout, r.Render())
			fmt.Fprintf(stdout, "[%s regenerated in %s]\n", j.id, time.Since(start).Round(time.Millisecond))
		}
		fmt.Fprintln(stdout)
	}
	if !matched {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// runInstrumented executes the functional benchmark with the metrics
// registry and span trace attached: a warm-path DGEMM loop on one
// device (tahiti's published Table II kernel), or the same call
// partitioned across the whole pool. It then renders where the time
// went and optionally persists the spans and the BENCH_gemm.json
// report.
func runInstrumented(stdout io.Writer, pool, showMetrics bool, tracePath, benchOut string) error {
	reg := oclgemm.NewMetrics()
	tr := oclgemm.NewTrace(0)

	const m, n, k = 192, 160, 128
	const iters = 4
	a := oclgemm.NewMatrix[float64](m, k, oclgemm.RowMajor)
	b := oclgemm.NewMatrix[float64](k, n, oclgemm.RowMajor)
	c := oclgemm.NewMatrix[float64](m, n, oclgemm.RowMajor)
	rng := rand.New(rand.NewSource(1))
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)

	mode, device := "single", "tahiti"
	var runOnce func() error
	var closer func()
	if pool {
		pg, err := oclgemm.NewPoolGEMM(oclgemm.PoolOptions{Metrics: reg, Trace: tr})
		if err != nil {
			return err
		}
		closer = pg.Close
		mode = "pool"
		device = fmt.Sprintf("%d-device pool", pg.Alive())
		runOnce = func() error { return pg.Run(oclgemm.NoTrans, oclgemm.NoTrans, 1.0, a, b, 0.0, c) }
	} else {
		p, ok, err := oclgemm.ParamsFor(oclgemm.PaperKernels(), "tahiti", oclgemm.Double)
		if err != nil || !ok {
			return fmt.Errorf("tahiti Table II kernel: ok=%v err=%v", ok, err)
		}
		d, err := oclgemm.DeviceByID("tahiti")
		if err != nil {
			return err
		}
		g, err := oclgemm.NewGEMM(d, p)
		if err != nil {
			return err
		}
		g.Observe(reg, tr)
		closer = g.Close
		runOnce = func() error { return g.Run(oclgemm.NoTrans, oclgemm.NoTrans, 1.0, a, b, 0.0, c) }
	}
	defer closer()

	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := runOnce(); err != nil {
			return err
		}
	}
	wall := time.Since(start)
	gflops := float64(iters) * 2 * float64(m) * float64(n) * float64(k) / wall.Seconds() / 1e9

	spans := tr.Snapshot()
	phases := oclgemm.PhaseBreakdown(spans)

	fmt.Fprintf(stdout, "Instrumented %s DGEMM %dx%dx%d, %d iterations (first cold, rest warm): %s wall, %.2f GFlop/s simulated\n\n",
		mode, m, n, k, iters, wall.Round(time.Microsecond), gflops)
	fmt.Fprint(stdout, oclgemm.RenderPhases(phases))
	if showMetrics {
		fmt.Fprintf(stdout, "\nMetrics registry:\n%s", reg.Snapshot().Render())
	}

	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%d spans written to %s (%d dropped by the ring)\n", len(spans), tracePath, tr.Dropped())
	}

	if benchOut != "" {
		rep := oclgemm.NewBenchReport(mode)
		rep.Device = device
		rep.M, rep.N, rep.K, rep.Iters = m, n, k, iters
		rep.WallSeconds = wall.Seconds()
		rep.GFlops = gflops
		rep.Phases = phases
		rep.Metrics = reg.Snapshot()
		entries, err := vmPhaseEntries()
		if err != nil {
			return fmt.Errorf("vm phase: %w", err)
		}
		rep.Entries = entries
		fmt.Fprintf(stdout, "\nclc VM kernel phase (generated GEMM source on the simulated runtime):\n")
		for _, e := range entries {
			fmt.Fprintf(stdout, "  %-12s %10.6fs %10.3f MFlop/s simulated\n", e.Name, e.WallSeconds, e.GFlops*1e3)
		}
		f, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nbenchmark report written to %s\n", benchOut)
	}
	return nil
}

// vmPhaseEntries times the clc engine on the committed BenchmarkVM
// kernel phase — the optimized and the raw (unoptimized) bytecode — so
// the BENCH_gemm.json report tracks the source-execution engine's
// throughput alongside the native phases.
func vmPhaseEntries() ([]oclgemm.BenchEntry, error) {
	p := codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 16, Nwg: 16, Kwg: 8, MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	src, err := p.GenerateSource()
	if err != nil {
		return nil, err
	}
	prog, err := clc.Compile(src)
	if err != nil {
		return nil, err
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		return nil, err
	}
	m, n, k := 32, 32, 16
	a := make([]float64, k*m)
	b := make([]float64, k*n)
	c := make([]float64, m*n)
	rng := rand.New(rand.NewSource(5))
	for i := range a {
		a[i] = rng.Float64()*2 - 1
	}
	for i := range b {
		b[i] = rng.Float64()*2 - 1
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	const iters = 10
	flops := 2 * float64(m) * float64(n) * float64(k)
	legs := []struct {
		name     string
		optimize bool
	}{{"clcvm", true}, {"clcvm-noopt", false}}
	out := make([]oclgemm.BenchEntry, 0, len(legs))
	for _, leg := range legs {
		bound, err := kern.Bind(m, n, k, 1.0, 0.0, a, b, c)
		if err != nil {
			return nil, err
		}
		bound.SetOptimize(leg.optimize)
		if err := q.Run(bound, nd); err != nil { // warm-up
			return nil, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := q.Run(bound, nd); err != nil {
				return nil, err
			}
		}
		wall := time.Since(start).Seconds()
		out = append(out, oclgemm.BenchEntry{
			Name: leg.name, Iters: iters, WallSeconds: wall,
			GFlops: float64(iters) * flops / wall / 1e9,
		})
	}
	return out, nil
}

// runMicro sweeps the micro-kernel over the paper's 12 Table II
// kernels. Each runs a size³ functional GEMM on its own device model:
// one warm-up call builds the plan and fills the pack caches, the timed
// iterations exercise the warm path, and the result is verified against
// the serial internal/blas reference within matrix.Tolerance. Each row
// prints the simulated GFlop/s with the kernel's stride mode.
func runMicro(stdout io.Writer, size int) error {
	if size < 1 {
		return fmt.Errorf("-microsize must be positive, got %d", size)
	}
	const iters = 2
	fmt.Fprintf(stdout, "Micro-kernel sweep, paper Table II kernels, %dx%dx%d (%d timed iterations after warm-up):\n", size, size, size, iters)
	fmt.Fprintf(stdout, "  %-12s %-5s %-3s %-6s %9s %10s\n", "device", "gemm", "alg", "stride", "GFlop/s", "max rel")
	for _, rec := range tunedb.PaperTableII().Records {
		p, err := rec.Params()
		if err != nil {
			return err
		}
		d, err := oclgemm.DeviceByID(rec.Device)
		if err != nil {
			return err
		}
		var gf, diff float64
		if p.Precision == matrix.Single {
			gf, diff, err = microLeg[float32](d, p, size, iters)
		} else {
			gf, diff, err = microLeg[float64](d, p, size, iters)
		}
		if err != nil {
			return fmt.Errorf("%s %s: %w", rec.Device, p.Precision.GEMMName(), err)
		}
		stride := "unit"
		if p.StrideM || p.StrideN {
			stride = "s"
			if p.StrideM {
				stride += "M"
			}
			if p.StrideN {
				stride += "N"
			}
		}
		fmt.Fprintf(stdout, "  %-12s %-5s %-3s %-6s %9.3f %10.2e\n", rec.Device, p.Precision.GEMMName(), p.Algorithm, stride, gf, diff)
	}
	return nil
}

// microLeg times iters warm size³ GEMMs of one kernel and returns the
// throughput and the result's max relative difference to internal/blas.
func microLeg[T matrix.Scalar](d *oclgemm.Device, p oclgemm.Params, size, iters int) (gflops, diff float64, err error) {
	g, err := oclgemm.NewGEMM(d, p)
	if err != nil {
		return 0, 0, err
	}
	defer g.Close()
	rng := rand.New(rand.NewSource(1))
	a := matrix.New[T](size, size, matrix.RowMajor)
	b := matrix.New[T](size, size, matrix.RowMajor)
	c := matrix.New[T](size, size, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	call := func() error { return oclgemm.Run(g, oclgemm.NoTrans, oclgemm.NoTrans, T(1), a, b, T(0), c) }
	if err := call(); err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := call(); err != nil {
			return 0, 0, err
		}
	}
	wall := time.Since(start).Seconds()
	want := matrix.New[T](size, size, matrix.RowMajor)
	blas.GEMM(blas.NoTrans, blas.NoTrans, T(1), a, b, T(0), want)
	diff = matrix.MaxRelDiff(c, want)
	if tol := matrix.Tolerance(p.Precision, size); diff > tol {
		return 0, diff, fmt.Errorf("max rel diff %.3g vs internal/blas exceeds %.3g", diff, tol)
	}
	return float64(iters) * blas.FlopCount(size, size, size) / wall / 1e9, diff, nil
}

// runChaos smoke-tests the resilient serve path: pool DGEMMs under a
// deterministic ServeInjector mixing ~30% transient/timeout launch
// faults with a scripted mid-run death of one member and a later
// revival. Every call must return a result bit-identical to a
// single-device run or a typed taxonomy error before its deadline; the
// summary prints what was injected and how the pool absorbed it.
func runChaos(stdout io.Writer, seed int64, runs int) error {
	if runs < 1 {
		return fmt.Errorf("-chaosruns must be positive, got %d", runs)
	}
	const victim = "cayman"
	inj, err := faultinject.NewServe(faultinject.ServeConfig{
		Seed:          seed,
		TransientRate: 0.20,
		TimeoutRate:   0.12,
		DeadAt:        map[string]int{victim: 6},
		ReviveAt:      map[string]int{victim: 14},
	})
	if err != nil {
		return err
	}
	pg, err := oclgemm.NewPoolGEMM(oclgemm.PoolOptions{
		TileM: 32, TileN: 32,
		Fallback:   true,
		LaunchHook: inj.Hook,
	})
	if err != nil {
		return err
	}
	defer pg.Close()

	const m, n, k = 160, 160, 48
	a := oclgemm.NewMatrix[float64](m, k, oclgemm.RowMajor)
	b := oclgemm.NewMatrix[float64](k, n, oclgemm.RowMajor)
	c0 := oclgemm.NewMatrix[float64](m, n, oclgemm.RowMajor)
	rng := rand.New(rand.NewSource(seed))
	a.FillRandom(rng)
	b.FillRandom(rng)
	c0.FillRandom(rng)

	// The oracle: the same call on one device (tahiti's Table II
	// kernel). K is never partitioned, so the pool — and the BLAS
	// fallback rung — must match it bit for bit.
	p, ok, err := oclgemm.ParamsFor(oclgemm.PaperKernels(), "tahiti", oclgemm.Double)
	if err != nil || !ok {
		return fmt.Errorf("tahiti Table II kernel: ok=%v err=%v", ok, err)
	}
	d, err := oclgemm.DeviceByID("tahiti")
	if err != nil {
		return err
	}
	g, err := oclgemm.NewGEMM(d, p)
	if err != nil {
		return err
	}
	defer g.Close()
	want := c0.Clone()
	if err := g.Run(oclgemm.NoTrans, oclgemm.NoTrans, 1.5, a, b, 0.5, want); err != nil {
		return err
	}

	okRuns, typedErrs := 0, 0
	for i := 0; i < runs; i++ {
		c := c0.Clone()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := pg.RunCtx(ctx, oclgemm.NoTrans, oclgemm.NoTrans, 1.5, a, b, 0.5, c)
		cancel()
		if err != nil {
			// A typed taxonomy error is an acceptable chaos outcome; a
			// hang or an untyped error is not.
			typed := errors.Is(err, oclgemm.ErrDeadlineExceeded) ||
				errors.Is(err, oclgemm.ErrNoDevices) ||
				errors.Is(err, oclgemm.ErrDeviceDead) ||
				errors.Is(err, core.ErrTransient) ||
				errors.Is(err, core.ErrTimeout) ||
				errors.Is(err, core.ErrCompile) ||
				errors.Is(err, core.ErrWrongResult)
			if !typed {
				return fmt.Errorf("run %d: untyped error: %w", i+1, err)
			}
			typedErrs++
			fmt.Fprintf(stdout, "run %d: typed error: %v\n", i+1, err)
			continue
		}
		for r := 0; r < m; r++ {
			for cc := 0; cc < n; cc++ {
				if c.At(r, cc) != want.At(r, cc) {
					return fmt.Errorf("run %d: C[%d,%d] = %v, want %v — silent wrong result", i+1, r, cc, c.At(r, cc), want.At(r, cc))
				}
			}
		}
		okRuns++
	}

	counts := inj.Counts()
	fmt.Fprintf(stdout, "Chaos smoke (seed %d): %d/%d runs bit-identical, %d typed errors, 0 hangs, 0 silent wrong results\n",
		seed, okRuns, runs, typedErrs)
	fmt.Fprintf(stdout, "  injected: %d transient, %d timeout, %d death-window refusals on %s\n",
		counts[faultinject.Transient], counts[faultinject.Hang], counts[faultinject.Death], victim)
	var retries, recoveries int
	for _, st := range pg.Stats() {
		retries += st.Retries
	}
	for _, h := range pg.Health() {
		recoveries += h.Recoveries
	}
	fmt.Fprintf(stdout, "  pool: %d/%d members alive, %d tile retries, %d probe recoveries\n",
		pg.Alive(), len(pg.Devices()), retries, recoveries)
	for _, h := range pg.Health() {
		fmt.Fprintf(stdout, "  %-22s %-11s probes=%d probe_failures=%d recoveries=%d\n",
			h.Device, h.State, h.Probes, h.ProbeFailures, h.Recoveries)
	}
	if okRuns == 0 {
		return fmt.Errorf("no run completed bit-identically under chaos")
	}
	return nil
}

// parseBatchSpec parses the -batched argument "MxNxKxCOUNT".
func parseBatchSpec(spec string) (m, n, k, count int, err error) {
	parts := strings.Split(strings.ToLower(spec), "x")
	if len(parts) != 4 {
		return 0, 0, 0, 0, fmt.Errorf("-batched wants MxNxKxCOUNT, got %q", spec)
	}
	vals := make([]int, 4)
	for i, p := range parts {
		v, convErr := strconv.Atoi(strings.TrimSpace(p))
		if convErr != nil || v < 1 {
			return 0, 0, 0, 0, fmt.Errorf("-batched wants four positive integers MxNxKxCOUNT, got %q", spec)
		}
		vals[i] = v
	}
	return vals[0], vals[1], vals[2], vals[3], nil
}

// runBatched times one strided batch (tahiti's Table II DGEMM kernel)
// on the three execution paths the batched subsystem offers: the warm
// GEMMStridedBatched call that amortizes one plan across every item,
// the loop-of-single-GEMMs baseline it replaces, and the serve wire
// path — framed slabs over loopback HTTP to /v1/gemm/batched. The
// three C slabs must be bit-identical; the per-leg throughputs are
// printed and, with -bench-out, appended to the BENCH_gemm.json report
// as entries.
func runBatched(stdout io.Writer, spec, benchOut string) error {
	m, n, k, count, err := parseBatchSpec(spec)
	if err != nil {
		return err
	}
	p, ok, err := oclgemm.ParamsFor(oclgemm.PaperKernels(), "tahiti", oclgemm.Double)
	if err != nil || !ok {
		return fmt.Errorf("tahiti Table II kernel: ok=%v err=%v", ok, err)
	}
	d, err := oclgemm.DeviceByID("tahiti")
	if err != nil {
		return err
	}
	g, err := oclgemm.NewGEMM(d, p)
	if err != nil {
		return err
	}
	defer g.Close()
	reg := oclgemm.NewMetrics()
	tr := oclgemm.NewTrace(0)
	g.Observe(reg, tr)

	rng := rand.New(rand.NewSource(1))
	na, nb, nc := m*k, k*n, m*n
	fill := func(sz int) []float64 {
		out := make([]float64, sz)
		for i := range out {
			out[i] = rng.Float64()*2 - 1
		}
		return out
	}
	aSlab, bSlab := fill(na*count), fill(nb*count)
	cBatched := make([]float64, nc*count)
	sb := &oclgemm.StridedBatch[float64]{
		M: m, N: n, K: k, Count: count, Alpha: 1,
		Order: oclgemm.RowMajor,
		A:     aSlab, StrideA: na,
		B: bSlab, StrideB: nb,
		C: cBatched, StrideC: nc,
	}

	const iters = 3
	legFlops := 2 * float64(m) * float64(n) * float64(k) * float64(count)

	// Leg 1: warm batched. The cold call builds the one shared plan;
	// the timed iterations ride the free-listed kernel state.
	if err := oclgemm.GEMMStridedBatched(g, sb); err != nil {
		return fmt.Errorf("batched: %w", err)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := oclgemm.GEMMStridedBatched(g, sb); err != nil {
			return fmt.Errorf("batched: %w", err)
		}
	}
	batchedWall := time.Since(start).Seconds()

	// Leg 2: the loop-of-single-GEMMs baseline on the same engine —
	// also the correctness oracle the batched slab must match bit for
	// bit. Beta is zero, so the loop is idempotent and the item views
	// can alias the slabs across iterations.
	cLoop := make([]float64, nc*count)
	type item struct{ a, b, c *matrix.Matrix[float64] }
	items := make([]item, count)
	for i := range items {
		items[i] = item{
			a: matrix.FromSlice(m, k, matrix.RowMajor, aSlab[i*na:(i+1)*na]),
			b: matrix.FromSlice(k, n, matrix.RowMajor, bSlab[i*nb:(i+1)*nb]),
			c: matrix.FromSlice(m, n, matrix.RowMajor, cLoop[i*nc:(i+1)*nc]),
		}
	}
	runLoop := func() error {
		for _, it := range items {
			if err := oclgemm.Run(g, oclgemm.NoTrans, oclgemm.NoTrans, 1.0, it.a, it.b, 0.0, it.c); err != nil {
				return err
			}
		}
		return nil
	}
	if err := runLoop(); err != nil {
		return fmt.Errorf("loop: %w", err)
	}
	for i, v := range cLoop {
		if v != cBatched[i] {
			return fmt.Errorf("slab element %d: loop %v, batched %v — not bit-identical", i, v, cBatched[i])
		}
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := runLoop(); err != nil {
			return fmt.Errorf("loop: %w", err)
		}
	}
	loopWall := time.Since(start).Seconds()

	// Leg 3: the serve wire path — one framed request per batch over
	// loopback HTTP, every response decoded and bit-checked against the
	// engine result.
	srv, err := serve.New(serve.Config{Device: "tahiti", QuotaMflopRate: -1})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	url := "http://" + ln.Addr().String() + "/v1/gemm/batched"
	h := &serve.Header{Precision: "double", M: m, N: n, K: k, Alpha: 1, Count: count}
	post := func() error {
		var body bytes.Buffer
		if err := serve.EncodeBatchedRequest(&body, h, aSlab, bSlab, nil); err != nil {
			return err
		}
		resp, err := http.Post(url, "application/octet-stream", &body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			return fmt.Errorf("serve status %d: %s", resp.StatusCode, msg)
		}
		rh, got, err := serve.DecodeBatchedResponse[float64](resp.Body, m, n, count)
		if err != nil {
			return err
		}
		if !rh.OK {
			return fmt.Errorf("serve: %s", rh.Error)
		}
		for i, v := range got {
			if v != cBatched[i] {
				return fmt.Errorf("serve slab element %d: %v, engine %v — not bit-identical", i, v, cBatched[i])
			}
		}
		return nil
	}
	if err := post(); err != nil { // cold call builds the server's plan
		return err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := post(); err != nil {
			return err
		}
	}
	serveWall := time.Since(start).Seconds()

	gf := func(wall float64) float64 { return float64(iters) * legFlops / wall / 1e9 }
	entries := []oclgemm.BenchEntry{
		{Name: "batched", Iters: iters, WallSeconds: batchedWall, GFlops: gf(batchedWall)},
		{Name: "loop", Iters: iters, WallSeconds: loopWall, GFlops: gf(loopWall)},
		{Name: "serve", Iters: iters, WallSeconds: serveWall, GFlops: gf(serveWall)},
	}

	fmt.Fprintf(stdout, "Strided batch of %d DGEMMs %dx%dx%d, tahiti Table II kernel (%d timed iterations per leg, all three slabs bit-identical):\n",
		count, m, n, k, iters)
	for _, e := range entries {
		fmt.Fprintf(stdout, "  %-8s %10.6fs %10.3f GFlop/s simulated\n", e.Name, e.WallSeconds, e.GFlops)
	}
	fmt.Fprintf(stdout, "  batched/loop speedup %.2fx\n", loopWall/batchedWall)

	if benchOut != "" {
		rep := oclgemm.NewBenchReport("batched")
		rep.Device = "tahiti"
		rep.M, rep.N, rep.K, rep.Iters = m, n, k, iters
		rep.Count = count
		rep.WallSeconds = batchedWall
		rep.GFlops = gf(batchedWall)
		rep.Entries = entries
		rep.Phases = oclgemm.PhaseBreakdown(tr.Snapshot())
		rep.Metrics = reg.Snapshot()
		f, err := os.Create(benchOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nbenchmark report written to %s\n", benchOut)
	}
	return nil
}

// runPool demonstrates the multi-device scheduler: one functional GEMM
// partitioned across the full Table I pool (verified against the
// reference definition, with the per-device tile breakdown), then the
// modeled partition of a maxSize-class problem with its aggregate
// speedup over the best single member.
func runPool(stdout io.Writer, maxSize int, csv bool) error {
	pg, err := oclgemm.NewPoolGEMM(oclgemm.PoolOptions{})
	if err != nil {
		return err
	}
	defer pg.Close()

	// Functional leg: small enough to simulate, large enough that every
	// member gets tiles.
	const fm, fn, fk = 256, 224, 96
	a := oclgemm.NewMatrix[float64](fm, fk, oclgemm.RowMajor)
	b := oclgemm.NewMatrix[float64](fk, fn, oclgemm.RowMajor)
	c := oclgemm.NewMatrix[float64](fm, fn, oclgemm.RowMajor)
	rng := rand.New(rand.NewSource(1))
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()

	start := time.Now()
	if err := pg.Run(oclgemm.NoTrans, oclgemm.NoTrans, 1.25, a, b, 0.5, c); err != nil {
		return err
	}
	wall := time.Since(start)

	// The partitioning invariant: the pool result is bit-identical to
	// the same GEMM on one device (here tahiti with its published
	// Table II kernel).
	p, ok, err := oclgemm.ParamsFor(oclgemm.PaperKernels(), "tahiti", oclgemm.Double)
	if err != nil || !ok {
		return fmt.Errorf("tahiti Table II kernel: ok=%v err=%v", ok, err)
	}
	d, err := oclgemm.DeviceByID("tahiti")
	if err != nil {
		return err
	}
	g, err := oclgemm.NewGEMM(d, p)
	if err != nil {
		return err
	}
	defer g.Close()
	if err := g.Run(oclgemm.NoTrans, oclgemm.NoTrans, 1.25, a, b, 0.5, want); err != nil {
		return err
	}
	for i := 0; i < fm; i++ {
		for j := 0; j < fn; j++ {
			if c.At(i, j) != want.At(i, j) {
				return fmt.Errorf("pool[%d,%d] = %v, single-device %v — not bit-identical", i, j, c.At(i, j), want.At(i, j))
			}
		}
	}

	// Modeled leg: the maxSize-class partition the paper's Table III
	// problems imply, for both precisions.
	estD, err := pg.Estimate(oclgemm.Double, maxSize, maxSize, maxSize)
	if err != nil {
		return err
	}
	estS, err := pg.Estimate(oclgemm.Single, maxSize, maxSize, maxSize)
	if err != nil {
		return err
	}

	if csv {
		fmt.Fprintln(stdout, "section,device,kernel,tiles,stolen,retries,bytes_moved,busy_s,model_s")
		for _, st := range pg.Stats() {
			fmt.Fprintf(stdout, "functional,%s,,%d,%d,%d,%d,%.6f,%.6f\n",
				st.Device, st.Tiles, st.Stolen, st.Retries, st.BytesMoved, st.BusySeconds, st.ModelSeconds)
		}
		fmt.Fprintln(stdout, "section,precision,device,kernel,solo_gflops,tiles,share,seconds")
		for _, est := range []*oclgemm.PoolEstimate{estD, estS} {
			for _, me := range est.Members {
				fmt.Fprintf(stdout, "modeled,%s,%s,%s,%.1f,%d,%.4f,%.4f\n",
					est.Precision, me.Device, me.Kernel, me.SoloGFlops, me.Tiles, me.Share, me.Seconds)
			}
			fmt.Fprintf(stdout, "modeled-total,%s,pool,,%.1f,%d,1.0000,%.4f\n", est.Precision, est.GFlops, est.Tiles, est.Seconds)
			fmt.Fprintf(stdout, "modeled-best-single,%s,%s,,%.1f,,,\n", est.Precision, est.BestSingleDevice, est.BestSingleGFlops)
			fmt.Fprintf(stdout, "modeled-speedup,%s,,,%.2f,,,\n", est.Precision, est.Speedup)
		}
		return nil
	}

	fmt.Fprintf(stdout, "PoolGEMM: %d-device pool, functional %dx%dx%d DGEMM in %s (bit-exact vs single-device GEMM)\n\n",
		pg.Alive(), fm, fn, fk, wall.Round(time.Millisecond))
	fmt.Fprintf(stdout, "%-22s %6s %7s %8s %12s %10s\n", "device", "tiles", "stolen", "retries", "bytes", "busy")
	for _, st := range pg.Stats() {
		fmt.Fprintf(stdout, "%-22s %6d %7d %8d %12d %9.3fs\n",
			st.Device, st.Tiles, st.Stolen, st.Retries, st.BytesMoved, st.BusySeconds)
	}
	for _, est := range []*oclgemm.PoolEstimate{estD, estS} {
		fmt.Fprintf(stdout, "\nModeled %s %dx%dx%d partition (%dx%d tiles):\n",
			est.Precision, est.M, est.N, est.K, est.TileM, est.TileN)
		fmt.Fprintf(stdout, "  %-22s %-34s %10s %6s %7s %9s\n", "device", "kernel", "solo GF/s", "tiles", "share", "seconds")
		for _, me := range est.Members {
			fmt.Fprintf(stdout, "  %-22s %-34s %10.1f %6d %6.1f%% %8.3fs\n",
				me.Device, me.Kernel, me.SoloGFlops, me.Tiles, 100*me.Share, me.Seconds)
		}
		fmt.Fprintf(stdout, "  aggregate: %.1f GF/s in %.3fs — %.2fx the best single device (%s, %.1f GF/s)\n",
			est.GFlops, est.Seconds, est.Speedup, est.BestSingleDevice, est.BestSingleGFlops)
	}
	return nil
}
