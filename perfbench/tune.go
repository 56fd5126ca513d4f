package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// The tune-verify searches: one GPU and one CPU of Table I. The CPU
// space holds only vector width 8, so the bytecode VM's vector paths
// run in the gate.
var tuneTargets = []struct {
	device string
	prec   matrix.Precision
}{
	{"kepler", matrix.Single},
	{"sandybridge", matrix.Single},
	{"sandybridge", matrix.Double},
}

// Search settings: a trimmed default space keeps one verified search
// near half a second, so a run holds tens of them; three finalists make
// the correctness gate the dominant cost.
const (
	tuneFinalists = 3
	tuneBudget    = 2000
	tuneMaxSize   = 2048
)

func tuneSpace(d *device.Spec) *core.Space {
	s := core.DefaultSpace(d)
	s.Mwg = []int{32, 64}
	s.Nwg = []int{32, 64}
	s.Kwg = []int{16, 32}
	s.MdimC = []int{8, 16}
	s.NdimC = []int{8, 16}
	s.Kwi = []int{2, 4, 8}
	if d.Kind == device.CPU {
		s.VectorWidths = []int{8}
	} else {
		s.VectorWidths = []int{1, 2, 4}
	}
	return &s
}

// tuneTarget is one search configuration plus the winner its warm-up
// search chose; every timed search must pick the same winner.
type tuneTarget struct {
	dev    *device.Spec
	prec   matrix.Precision
	space  *core.Space
	winner string
	best   float64
}

func (t *tuneTarget) options() core.Options {
	return core.Options{
		Device: t.dev, Precision: t.prec, Space: t.space, Verify: true,
		Finalists: tuneFinalists, MaxCandidates: tuneBudget, MaxSize: tuneMaxSize,
	}
}

func search(o core.Options) (*core.Selection, error) {
	tn, err := core.New(o)
	if err != nil {
		return nil, err
	}
	return tn.Search()
}

// setupTune builds the targets and warms each with one verified search.
func setupTune() ([]*tuneTarget, error) {
	var ts []*tuneTarget
	for _, tt := range tuneTargets {
		d, err := device.ByID(tt.device)
		if err != nil {
			return nil, err
		}
		t := &tuneTarget{dev: d, prec: tt.prec, space: tuneSpace(d)}
		sel, err := search(t.options())
		if err != nil {
			return nil, fmt.Errorf("warm-up search %s %s: %w", tt.device, tt.prec.GEMMName(), err)
		}
		t.winner, t.best = sel.Best.Params.Name(), sel.Best.Best
		ts = append(ts, t)
	}
	return ts, nil
}

// verifyFlops is the computed flop count of the GEMMs one passing
// VerifyParams call runs: the native 7×9×5 pad check plus the generated
// source on its 2×2×2 and 3×2×3 work-group grids.
func verifyFlops(p *codegen.Params) float64 {
	f := 2.0 * 7 * 9 * 5
	for _, g := range verifyGrids {
		f += 2 * float64(g[0]*p.Mwg) * float64(g[1]*p.Nwg) * float64(g[2]*p.Kwg)
	}
	return f
}

// verifyGrids are core.VerifySource's work-group grids.
var verifyGrids = [][3]int{{2, 2, 2}, {3, 2, 3}}

// tuneOp runs one timed search and checks it outside the timer: the
// winner must be the warm-up's and must pass core.VerifyParams again.
func tuneOp(cfg *config, t *tuneTarget, o core.Options, rec *recorder) {
	start := time.Now()
	sel, err := search(o)
	lat := since(start)
	rec.timed += lat
	if err != nil {
		rec.op(lat, 0, err)
		return
	}
	best := sel.Best.Params
	if cfg.takeCorrupt() {
		best.Kwg++
	}
	switch {
	case best.Name() != t.winner:
		err = fmt.Errorf("%w: search picked %s, warm-up picked %s", errWrong, best.Name(), t.winner)
	default:
		if verr := core.VerifyParams(t.dev, &best); verr != nil {
			err = fmt.Errorf("%w: winner failed re-verification: %v", errWrong, verr)
		}
	}
	flops := 0.0
	for i := range sel.Finalists {
		flops += verifyFlops(&sel.Finalists[i].Params)
	}
	rec.op(lat, flops, err)
}

// tunePhase runs whole decks (one search per target, seeded order)
// until seconds of timed searches have passed. trace, when set, wraps
// the gate and the evaluator and measures the layers after each op.
func tunePhase(cfg *config, rng *rand.Rand, ts []*tuneTarget, seconds float64, trace *tuneTrace) *phase {
	ph := &phase{}
	mem := startMem()
	for {
		for _, i := range rng.Perm(len(ts)) {
			o := ts[i].options()
			if trace != nil {
				o.Verifier, o.Evaluator = trace.verifier, trace.evaluator
			}
			tuneOp(cfg, ts[i], o, &ph.rec)
			if trace != nil {
				trace.afterOp(ts[i])
			}
		}
		ph.rec.cut()
		if ph.rec.timed >= seconds {
			break
		}
	}
	ph.alloc, ph.retained = mem.end()
	return ph
}

func runTune(cfg *config) (*outcome, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var ts []*tuneTarget
	var setups []float64
	for i := 0; i < cfg.setupRuns(); i++ {
		start := time.Now()
		var err error
		if ts, err = setupTune(); err != nil {
			return nil, err
		}
		setups = append(setups, since(start))
	}
	var bests []float64
	for _, t := range ts {
		bests = append(bests, t.best)
	}
	if !cfg.trace {
		ph := tunePhase(cfg, rng, ts, cfg.seconds, nil)
		return &outcome{endToEnd(setups, ph, geomean(bests)), ph.rec.attempted, ph.rec.failed, ph.rec.firstFail}, nil
	}
	plain := tunePhase(cfg, rng, ts, cfg.seconds/2, nil)
	tr := &tuneTrace{}
	traced := tunePhase(cfg, rng, ts, cfg.seconds/2, tr)
	all := plain.rec
	all.merge(&traced.rec)
	ms := tr.metrics(traced.rec.attempted)
	ms = append(ms, metric{"bench.trace_overhead", ratio(quantile(traced.rec.lat, 0.5), quantile(plain.rec.lat, 0.5)), "ratio",
		"traced op_p50 / untraced op_p50 in this run"})
	return &outcome{ms, all.attempted, all.failed, all.firstFail}, nil
}

// tuneTrace is the traced tune-verify run's instrumentation: wrappers
// around the gate (core.VerifyParams) and the evaluator
// (core.ModelEvaluator), plus replays of stage 0 and of the gate's
// source stages timed outside each op.
type tuneTrace struct {
	mu    sync.Mutex
	calls []verifyCall // the current op's gate calls

	evals     atomic.Int64
	evalNanos atomic.Int64

	stage0, busy, wall          float64
	verifyCalls, rejects        int
	generate, compile, run      float64
	workitems, launches, groups float64
	barriers                    float64
}

type verifyCall struct {
	p          codegen.Params
	start, end time.Time
	err        error
}

func (tr *tuneTrace) verifier(d *device.Spec, p *codegen.Params) error {
	start := time.Now()
	err := core.VerifyParams(d, p)
	c := verifyCall{*p, start, time.Now(), err}
	tr.mu.Lock()
	tr.calls = append(tr.calls, c)
	tr.mu.Unlock()
	return err
}

func (tr *tuneTrace) evaluator(d *device.Spec, p *codegen.Params, n int) (float64, error) {
	start := time.Now()
	gf, err := core.ModelEvaluator(d, p, n)
	tr.evalNanos.Add(int64(time.Since(start)))
	tr.evals.Add(1)
	return gf, err
}

// afterOp folds the op's gate calls into the totals and replays the
// layers the op crossed: stage 0's two enumeration passes, and the
// gate's generate / compile / VM-run stages with the gate's own
// parallelism.
func (tr *tuneTrace) afterOp(t *tuneTarget) {
	tr.mu.Lock()
	calls := tr.calls
	tr.calls = nil
	tr.mu.Unlock()

	var spans [][2]time.Time
	for _, c := range calls {
		tr.busy += c.end.Sub(c.start).Seconds()
		spans = append(spans, [2]time.Time{c.start, c.end})
		if c.err != nil {
			tr.rejects++
		}
	}
	tr.verifyCalls += len(calls)
	tr.wall += unionSeconds(spans)

	start := time.Now()
	enumerateLikeSearch(t)
	tr.stage0 += since(start)

	stages := make([]srcStages, len(calls))
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(calls); i = int(next.Add(1) - 1) {
				stages[i] = replaySource(t.dev, &calls[i].p)
			}
		}()
	}
	wg.Wait()
	for _, s := range stages {
		tr.generate += s.generate
		tr.compile += s.compile
		tr.run += s.run
		tr.workitems += s.workitems
		tr.launches += s.launches
		tr.groups += s.groups
		tr.barriers += s.barriers
	}
}

// enumerateLikeSearch repeats Search's stage 0: a counting pass over
// the space, then the decimating sampling pass. It returns the sample
// size.
func enumerateLikeSearch(t *tuneTarget) int {
	valid, _ := t.space.Enumerate(t.dev, t.prec, func(codegen.Params) bool { return true })
	step := 1
	if valid > tuneBudget {
		step = (valid + tuneBudget - 1) / tuneBudget
	}
	var cands []codegen.Params
	idx := 0
	t.space.Enumerate(t.dev, t.prec, func(p codegen.Params) bool {
		if idx%step == 0 {
			cands = append(cands, p)
		}
		idx++
		return true
	})
	return len(cands)
}

// unionSeconds returns the length of the union of the spans.
func unionSeconds(spans [][2]time.Time) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	total := 0.0
	var cur [2]time.Time
	for i, s := range spans {
		if i == 0 || s[0].After(cur[1]) {
			if i > 0 {
				total += cur[1].Sub(cur[0]).Seconds()
			}
			cur = s
			continue
		}
		if s[1].After(cur[1]) {
			cur[1] = s[1]
		}
	}
	if len(spans) > 0 {
		total += cur[1].Sub(cur[0]).Seconds()
	}
	return total
}

// srcStages is one replay of the gate's source check.
type srcStages struct {
	generate, compile, run                float64
	workitems, launches, groups, barriers float64
}

// replaySource repeats core.VerifySource's stages for one kernel with a
// timer around each: GenerateSource, clc.Compile (with kernel lookup
// and bind) and the bound kernel on clsim's concurrent executor, on
// both of the gate's grids. Operand set-up is outside the timers.
func replaySource(d *device.Spec, p *codegen.Params) srcStages {
	var s srcStages
	for _, g := range verifyGrids {
		if p.Precision == matrix.Double {
			replayGrid[float64](d, p, g, &s)
		} else {
			replayGrid[float32](d, p, g, &s)
		}
	}
	return s
}

func replayGrid[T matrix.Scalar](d *device.Spec, p *codegen.Params, g [3]int, s *srcStages) {
	m, n, k := g[0]*p.Mwg, g[1]*p.Nwg, g[2]*p.Kwg
	start := time.Now()
	src, err := p.GenerateSource()
	s.generate += since(start)
	if err != nil {
		return
	}
	rng := rand.New(rand.NewSource(43))
	a := matrix.New[T](m, k, matrix.RowMajor)
	b := matrix.New[T](k, n, matrix.RowMajor)
	c := matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)

	start = time.Now()
	prog, err := clc.Compile(src)
	if err != nil {
		s.compile += since(start)
		return
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		s.compile += since(start)
		return
	}
	bound, err := kern.Bind(m, n, k, T(1.5), T(-0.25), at.Data, bp.Data, c.Data)
	s.compile += since(start)
	if err != nil {
		return
	}
	bound.SetFuel(1 << 26)
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: d}))
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	start = time.Now()
	_ = q.Run(bound, nd) // the gate already judged this kernel; only the time matters here
	s.run += since(start)
	st := q.Stats()
	s.workitems += float64(nd.Global[0] * nd.Global[1])
	s.launches += float64(st.KernelLaunches)
	s.groups += float64(st.WorkGroupsRun)
	s.barriers += float64(st.BarriersHit)
}

// metrics turns the traced totals into per-op layer metrics.
func (tr *tuneTrace) metrics(ops int) []metric {
	n := float64(max(ops, 1))
	src := tr.generate + tr.compile + tr.run
	return []metric{
		{"core.stage0_s", tr.stage0 / n, "s/op", "replayed Space.Enumerate passes"},
		{"core.verify_calls", float64(tr.verifyCalls) / n, "count/op", ""},
		{"core.verify_rejects", float64(tr.rejects) / n, "count/op", ""},
		{"core.verify_busy_s", tr.busy / n, "s/op", "sum of gate call times"},
		{"core.verify_wall_s", tr.wall / n, "s/op", "union of gate call spans"},
		{"core.verify_parallel_eff", ratio(tr.busy, tr.wall*float64(runtime.GOMAXPROCS(0))), "ratio", fmt.Sprintf("busy / (wall x %d workers)", runtime.GOMAXPROCS(0))},
		{"perfmodel.evals", float64(tr.evals.Load()) / n, "count/op", ""},
		{"perfmodel.eval_busy_s", float64(tr.evalNanos.Load()) / 1e9 / n, "s/op", ""},
		{"codegen.generate_s", tr.generate / n, "s/op", "replayed gate stage"},
		{"clc.compile_s", tr.compile / n, "s/op", "replayed gate stage (compile, lookup, bind)"},
		{"clc.run_s", tr.run / n, "s/op", "replayed gate stage (bytecode VM on clsim.Queue.Run)"},
		{"clc.workitems", tr.workitems / n, "count/op", "computed from the gate grids"},
		{"gemmimpl.native_check_s", (tr.busy - src) / n, "s/op", "derived: gate busy minus replayed source stages"},
		{"clsim.launches", tr.launches / n, "count/op", "replayed gate queues"},
		{"clsim.workgroups", tr.groups / n, "count/op", "replayed gate queues"},
		{"clsim.barriers", tr.barriers / n, "count/op", "replayed gate queues"},
	}
}
