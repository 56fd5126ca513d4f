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
// Wall-clock throughput with repeated samples and dispersion is
// perfbench's job (perfbench/run.py); gemmbench prints one run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"

	"oclgemm"
	"oclgemm/internal/core"
	"oclgemm/internal/experiments"
	"oclgemm/internal/faultinject"
	"oclgemm/internal/matrix"
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
	chaos := fs.Bool("chaos", false, "run the serve-path chaos smoke: pool DGEMMs under injected launch faults, a scripted device death and a later revival")
	chaosSeed := fs.Int64("chaosseed", 1, "fault-injection seed for -chaos")
	chaosRuns := fs.Int("chaosruns", 6, "number of pool runs for -chaos")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *chaos {
		return runChaos(stdout, *chaosSeed, *chaosRuns)
	}

	if *metrics || *tracePath != "" {
		return runInstrumented(stdout, *pool, *metrics, *tracePath)
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
// went and optionally persists the spans.
func runInstrumented(stdout io.Writer, pool, showMetrics bool, tracePath string) error {
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

	mode := "single"
	var runOnce func() error
	var closer func()
	if pool {
		pg, err := oclgemm.NewPoolGEMM(oclgemm.PoolOptions{Metrics: reg, Trace: tr})
		if err != nil {
			return err
		}
		closer = pg.Close
		mode = "pool"
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

	return nil
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
