// Command perfbench is the repository benchmark: three seeded,
// self-verifying workloads driven through the public entry points of
// the tuner (internal/core), the GEMM library (package oclgemm) and the
// GEMM service (internal/serve).
//
//	go run . --workload gemm-mix --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) prints per-layer metrics taken by timers the
// benchmark wraps around each layer's public calls and by counters the
// program already exports through the registries the benchmark passes
// in. Every timed op is verified outside its timer; a wrong result
// makes the run exit non-zero. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	setups   int
	// corrupt perturbs the first result the checker sees, so tests can
	// prove that a wrong result fails the run.
	corrupt bool
}

// takeCorrupt reports whether this check should see a corrupted result
// (true exactly once when corrupt is set).
func (c *config) takeCorrupt() bool {
	if c.corrupt {
		c.corrupt = false
		return true
	}
	return false
}

// setupRuns is how often a run sets the system up: setup_s is the
// median of cfg.setups repetitions; a traced run reports no setup_s and
// sets up once.
func (c *config) setupRuns() int {
	if c.trace {
		return 1
	}
	return c.setups
}

// outcome is what a workload hands back to the reporter.
type outcome struct {
	metrics           []metric
	attempted, failed int
	firstFail         string
}

type workload struct {
	name, why string
	run       func(*config) (*outcome, error)
	// setups is the default set-up repetition count: enough that the
	// set-ups of one run take a few seconds.
	setups int
}

var workloads = []workload{
	{"tune-verify", "verified three-stage searches (kepler SGEMM, sandybridge SGEMM and DGEMM): the correctness gate dominates, so codegen, clc compile and the bytecode VM do most of the work", runTune, 3},
	{"gemm-mix", "warm GEMM, batch, strided and PoolGEMM library calls at sizes 96-288: the native micro-kernel, pack/copy, plan cache and pool scheduling do the work", runMix, 5},
	{"serve-small", "two closed-loop HTTP clients sending small single and Count-16 batched requests: wire codec, admission, the coalescing window and padded tiles dominate", runServe, 15},
}

// layerMetrics is every per-layer metric a traced run reports, in
// report order; a workload that does not cross a layer reports it as 0
// with the reason.
var layerMetrics = []struct{ name, unit string }{
	{"core.stage0_s", "s/op"},
	{"core.verify_calls", "count/op"},
	{"core.verify_rejects", "count/op"},
	{"core.verify_busy_s", "s/op"},
	{"core.verify_wall_s", "s/op"},
	{"core.verify_parallel_eff", "ratio"},
	{"perfmodel.evals", "count/op"},
	{"perfmodel.eval_busy_s", "s/op"},
	{"codegen.generate_s", "s/op"},
	{"clc.compile_s", "s/op"},
	{"clc.run_s", "s/op"},
	{"clc.workitems", "count/op"},
	{"gemmimpl.native_check_s", "s/op"},
	{"gemmimpl.pack_s", "s/op"},
	{"gemmimpl.kernel_s", "s/op"},
	{"gemmimpl.copy_out_s", "s/op"},
	{"gemmimpl.pack_reuse_ratio", "ratio"},
	{"gemmimpl.plan_hit_ratio", "ratio"},
	{"gemmimpl.pad_efficiency", "ratio"},
	{"kernels.gflops", "GFlop/s"},
	{"kernels.fast_path_ratio", "ratio"},
	{"kernels.flops_per_byte", "flop/B"},
	{"clsim.launches", "count/op"},
	{"clsim.workgroups", "count/op"},
	{"clsim.barriers", "count/op"},
	{"sched.tiles", "count/op"},
	{"sched.steals", "count/op"},
	{"sched.retries", "count/op"},
	{"sched.busy_s", "s/op"},
	{"sched.imbalance", "ratio"},
	{"sched.efficiency", "ratio"},
	{"serve.handler_s", "s/op"},
	{"serve.transport_s", "s/op"},
	{"serve.engine_s", "s/op"},
	{"serve.overhead_s", "s/op"},
	{"serve.proto_us", "us/op"},
	{"serve.coalesce_ratio", "ratio"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed", "count"},
	{"blas.gflops", "GFlop/s"},
	{"blas.gflops_1t", "GFlop/s"},
	{"ladder.kernels_vs_blas", "ratio"},
	{"ladder.plan_vs_kernels", "ratio"},
	{"ladder.pool_vs_plan", "ratio"},
	{"ladder.serve_vs_engine", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one invocation and returns the process exit code: 0 for
// a correct run, 1 for a wrong result or a failed set-up, 2 for bad
// arguments.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := &config{}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: tune-verify, gemm-mix or serve-small")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed for inputs, op order and payloads")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "timed seconds per phase (whole decks of ops; at least one)")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics instead of end-to-end ones")
	fs.IntVar(&cfg.setups, "setups", 0, "set-up repetitions; setup_s is their median (0 = the workload's default)")
	fs.BoolVar(&cfg.corrupt, "corrupt", false, "corrupt the first checked result (tests that a wrong result fails the run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	cfg.trace = trace == 1
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if cfg.setups <= 0 {
		cfg.setups = wl.setups
	}

	steal0 := cpuSteal()
	out, err := wl.run(cfg)
	stolen := cpuSteal().since(steal0)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	if cfg.trace {
		out.metrics = withAbsentLayers(out.metrics, wl.name)
	}
	w := bufio.NewWriter(stdout)
	printReport(w, cfg, wl, out, stolen)
	correct := out.failed == 0 && out.attempted > 0
	if err := writeResult(w, correct, out); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if !correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d ops failed (first: %s)\n", wl.name, out.failed, out.attempted, out.firstFail)
		return 1
	}
	return 0
}

// withAbsentLayers returns the traced metrics in layerMetrics order,
// adding every layer the workload did not measure as 0 with the reason.
func withAbsentLayers(got []metric, wl string) []metric {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.name] = m
	}
	out := make([]metric, 0, len(layerMetrics))
	for _, lm := range layerMetrics {
		m, ok := byName[lm.name]
		if !ok {
			m = metric{lm.name, 0, lm.unit, "absent: " + wl + " does not cross this layer"}
		}
		out = append(out, m)
	}
	return out
}

// printReport writes the human-readable report: the host stamp, then
// one table per kind of number so modeled and host figures never share
// a table.
func printReport(w io.Writer, cfg *config, wl *workload, out *outcome, stolen string) {
	mode := "end-to-end (untraced)"
	if cfg.trace {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(w, "perfbench %s  workload=%s seed=%d seconds=%g setups=%d\n", mode, wl.name, cfg.seed, cfg.seconds, cfg.setupRuns())
	fmt.Fprintf(w, "host: nproc=%d GOMAXPROCS=%d go=%s cpu=%q commit=%s cpu-steal=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), commit(), stolen)
	fmt.Fprintf(w, "why: %s\n", wl.why)
	sections := []struct {
		title string
		match func(note string) bool
	}{
		{"host wall-clock measurements", func(n string) bool {
			return !strings.HasPrefix(n, "modeled") && !isComputed(n) && !strings.HasPrefix(n, "absent")
		}},
		{"computed or derived (not timed directly)", isComputed},
		{"modeled by perfmodel (paper-world GFlop/s, not host time)", func(n string) bool { return strings.HasPrefix(n, "modeled") }},
		{"absent", func(n string) bool { return strings.HasPrefix(n, "absent") }},
	}
	for _, s := range sections {
		first := true
		for _, m := range out.metrics {
			if !s.match(m.note) {
				continue
			}
			if first {
				fmt.Fprintf(w, "-- %s --\n", s.title)
				first = false
			}
			fmt.Fprintf(w, "  %-26s %14.6g %-14s %s\n", m.name, m.value, m.unit, m.note)
		}
	}
	fmt.Fprintf(w, "-- checks --\n  attempted=%d failed=%d fail_ratio=%g\n",
		out.attempted, out.failed, ratio(float64(out.failed), float64(out.attempted)))
	if out.firstFail != "" {
		fmt.Fprintf(w, "  first failure: %s\n", out.firstFail)
	}
}

func isComputed(note string) bool {
	return strings.HasPrefix(note, "computed") || strings.HasPrefix(note, "derived")
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]resultItem `json:"metrics"`
}

type resultItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeResult(w io.Writer, correct bool, out *outcome) error {
	res := result{Correct: correct, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]resultItem{}}
	for _, m := range out.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", m.name, m.value)
		}
		res.Metrics[m.name] = resultItem{m.value, m.unit}
	}
	js, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", js)
	return err
}

// cpuModel returns the host CPU model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// stealTicks is the host's cumulative CPU time (all states) and the
// part of it the hypervisor gave to other guests, from /proc/stat.
type stealTicks struct{ total, steal float64 }

func cpuSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	var t stealTicks
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user..steal; guest time is already inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// since reports the share of host CPU time stolen between s0 and t:
// timing noise on a shared host that the run cannot control.
func (t stealTicks) since(s0 stealTicks) string {
	if t.total <= s0.total {
		return "unknown"
	}
	return fmt.Sprintf("%.1f%%", 100*(t.steal-s0.steal)/(t.total-s0.total))
}

// commit returns the VCS revision the binary was built from, as the go
// command stamped it; a checkout without version control has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	if rev == "" {
		return "unknown (not built from a version-controlled checkout)"
	}
	return rev + dirty
}

// errWrong marks a result that did not match the reference.
var errWrong = errors.New("wrong result")
