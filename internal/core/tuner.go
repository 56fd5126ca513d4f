package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/perfmodel"
)

// Evaluator measures one kernel variant at one problem size, returning
// GFlop/s. The production evaluator is the performance model; tests may
// substitute their own.
type Evaluator func(d *device.Spec, p *codegen.Params, n int) (float64, error)

// ModelEvaluator evaluates square problems through the performance
// model (the paper's wall-clock measurement step).
func ModelEvaluator(d *device.Spec, p *codegen.Params, n int) (float64, error) {
	return perfmodel.KernelGFlops(d, p, n, n, n)
}

// Options configures a tuning run.
type Options struct {
	Device    *device.Spec
	Precision matrix.Precision

	// Space is the candidate space; zero value means DefaultSpace.
	Space *Space

	// Finalists is the number of stage-2 kernels (paper: 50).
	Finalists int
	// MaxSize is the largest stage-2 problem size (paper: 8192).
	MaxSize int
	// MaxCandidates caps stage-1 evaluations by deterministic
	// decimation of the enumeration; this is the engine's heuristic
	// sampling (the paper likewise measures "tens of thousands" of
	// heuristically chosen variants, not the full cross product).
	// 0 means the default of 25000; negative means no cap.
	MaxCandidates int
	// Workers bounds evaluation parallelism (0 = GOMAXPROCS).
	Workers int
	// Evaluator overrides the measurement function (nil = model).
	Evaluator Evaluator
	// CtxEvaluator overrides Evaluator with a context-aware
	// measurement function; required for the per-evaluation timeout to
	// reclaim hung evaluations.
	CtxEvaluator CtxEvaluator

	// EvalTimeout bounds each evaluation; 0 disables the timeout
	// middleware. Evaluations past the deadline count as
	// RejectTimeout (the paper's hung kernels).
	EvalTimeout time.Duration
	// MaxRetries re-attempts evaluations failing with ErrTransient up
	// to this many extra times, 1ms apart and doubling (0 disables the
	// retry middleware).
	MaxRetries int

	// Verify enables the correctness gate: each finalist's generated
	// kernel runs on the simulated runtime and is compared against the
	// blas reference before it may reach stage 2; wrong-result kernels
	// are disqualified and replaced from the stage-1 ranking.
	Verify bool
	// Verifier overrides the gate's check (nil = VerifyParams).
	Verifier Verifier

	// JournalPath enables stage-1 checkpointing: completed evaluations
	// append to this JSON-lines file, and a re-run with the same path
	// (and search configuration) resumes instead of re-measuring.
	JournalPath string

	// Obs, when set, receives the search's measurement record: a
	// tune.eval.seconds histogram timing every evaluation,
	// tune.evals / tune.eval.failures counters, and — when the search
	// returns — the Stats fold (tune.reject.<cause> per rejection
	// cause, tested/resumed/verified/stage-2 counters).
	Obs *obs.Registry

	// Context cancels a running search; Search, RandomSearch and
	// Anneal then return an error wrapping ErrInterrupted. nil means
	// Background.
	Context context.Context
}

// SizedPerf is one point of a performance curve.
type SizedPerf struct {
	N      int
	GFlops float64
}

// Result describes one tuned kernel variant.
type Result struct {
	Params codegen.Params
	// Probe is the stage-1 performance at the probe size.
	Probe float64
	// Curve is the stage-2 performance over sizes (finalists only).
	Curve []SizedPerf
	// Best is the maximum GFlop/s over the curve.
	Best float64
	// BestN is the size at which Best was observed.
	BestN int
}

// Stats tallies a search run the way the paper reports it: variants
// that failed generation, compilation or testing are counted under
// Rejected (split by cause), not among the tested kernels.
type Stats struct {
	// Enumerated is the number of valid candidate variants in the
	// (sampled) space.
	Enumerated int
	// Measured is the number of stage-1 evaluations attempted,
	// including journal replays.
	Measured int
	// Tested is the number of stage-1 evaluations that produced a
	// measurement (Measured minus evaluation failures).
	Tested int
	// Resumed counts stage-1 results restored from the checkpoint
	// journal instead of re-evaluated.
	Resumed int
	// Rejected totals candidates excluded for any cause: generation or
	// device checks, evaluation failures, and correctness-gate
	// disqualifications.
	Rejected int
	// RejectedBy breaks Rejected down per cause.
	RejectedBy map[RejectCause]int
	// Verified counts finalists that passed the correctness gate
	// (0 when the gate is disabled).
	Verified    int
	ProbeSize   int
	Stage2      int // finalists re-measured across sizes
	Stage2Evals int
}

// addReject tallies one rejection.
func (s *Stats) addReject(c RejectCause, n int) {
	if n == 0 {
		return
	}
	if s.RejectedBy == nil {
		s.RejectedBy = make(map[RejectCause]int)
	}
	s.RejectedBy[c] += n
	s.Rejected += n
}

// publish folds the search tally into the registry: one
// tune.reject.<cause> counter per rejection cause plus the headline
// enumerated/measured/tested/resumed/verified and stage-2 counters.
func (s *Stats) publish(r *obs.Registry) {
	if r == nil {
		return
	}
	for c, n := range s.RejectedBy {
		r.Counter("tune.reject." + c.String()).Add(int64(n))
	}
	r.Counter("tune.candidates.enumerated").Add(int64(s.Enumerated))
	r.Counter("tune.candidates.measured").Add(int64(s.Measured))
	r.Counter("tune.candidates.tested").Add(int64(s.Tested))
	r.Counter("tune.candidates.resumed").Add(int64(s.Resumed))
	r.Counter("tune.finalists.verified").Add(int64(s.Verified))
	r.Counter("tune.stage2.kernels").Add(int64(s.Stage2))
	r.Counter("tune.stage2.evals").Add(int64(s.Stage2Evals))
}

// Selection is the outcome of a search.
type Selection struct {
	Best      Result
	Finalists []Result
	Stats     Stats
}

// Tuner is the auto-tuning system: code generator parameter space plus
// heuristic search engine.
type Tuner struct {
	opts Options
	eval CtxEvaluator // Evaluator wrapped in the middleware stack
}

// New creates a tuner. Device and a valid precision are required.
func New(opts Options) (*Tuner, error) {
	if opts.Device == nil {
		return nil, errors.New("core: Options.Device is required")
	}
	if opts.Finalists <= 0 {
		opts.Finalists = 50
	}
	if opts.MaxSize <= 0 {
		opts.MaxSize = 8192
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.MaxCandidates == 0 {
		opts.MaxCandidates = 25000
	}
	if opts.Evaluator == nil {
		opts.Evaluator = ModelEvaluator
	}
	if opts.Space == nil {
		s := DefaultSpace(opts.Device)
		opts.Space = &s
	}
	if opts.Verifier == nil {
		opts.Verifier = VerifyParams
	}
	if opts.Context == nil {
		opts.Context = context.Background()
	}
	ev := opts.CtxEvaluator
	if ev == nil {
		ev = AdaptEvaluator(opts.Evaluator)
	}
	ev = WithTimeout(ev, opts.EvalTimeout)
	ev = WithRetry(ev, opts.MaxRetries, time.Millisecond)
	ev = WithObserver(ev, opts.Obs)
	return &Tuner{opts: opts, eval: ev}, nil
}

// ProbeSize returns the paper's stage-1 problem size for the given
// kernel: ⌊4096/LCM⌋·LCM on GPUs and ⌊1536/LCM⌋·LCM on CPUs, where LCM
// is the least common multiple of the work-group blocking factors.
func ProbeSize(d *device.Spec, p *codegen.Params) int {
	base := 4096
	if d.Kind == device.CPU {
		base = 1536
	}
	l := p.LCM()
	n := base / l * l
	if n < l {
		n = l
	}
	return n
}

// Sizes returns the stage-2 sweep: multiples of lcm up to max,
// thinned to at most 64 points to bound work for tiny LCMs.
func Sizes(lcm, max int) []int {
	if lcm <= 0 || max < lcm {
		return nil
	}
	count := max / lcm
	step := 1
	if count > 64 {
		step = (count + 63) / 64
	}
	var out []int
	for i := step; i*lcm <= max; i += step {
		out = append(out, i*lcm)
	}
	return out
}

// Search runs the three-stage selection and returns the fastest kernel.
// Candidates that fail evaluation (compile, hang, persistent transient
// error, panic) are rejected per cause rather than scored; if every
// candidate fails, the error wraps ErrNoViableKernel.
func (t *Tuner) Search() (*Selection, error) {
	o := t.opts
	ctx := o.Context
	var stats Stats
	// Publish on every exit so aborted searches still leave their
	// partial tally (rejects, resumed counts) in the registry.
	defer func() { stats.publish(o.Obs) }()

	// Stage 0: count the valid candidates, then sample the space with a
	// deterministic stride so the measured set stays representative.
	valid, genRejected := o.Space.Enumerate(o.Device, o.Precision, func(codegen.Params) bool { return true })
	if valid == 0 {
		return nil, fmt.Errorf("core: no valid kernel variants for %s %s",
			o.Device.CodeName, o.Precision.GEMMName())
	}
	stats.Enumerated = valid
	stats.addReject(RejectGeneration, genRejected)
	step := 1
	if o.MaxCandidates > 0 && valid > o.MaxCandidates {
		step = valid / o.MaxCandidates
		if valid%o.MaxCandidates != 0 {
			step++
		}
	}
	candidates := make([]codegen.Params, 0, valid/step+1)
	idx := 0
	o.Space.Enumerate(o.Device, o.Precision, func(p codegen.Params) bool {
		if idx%step == 0 {
			candidates = append(candidates, p)
		}
		idx++
		return true
	})

	// Checkpoint journal: replay completed stage-1 evaluations.
	var jr *journal
	replay := map[string]journalEntry{}
	if o.JournalPath != "" {
		var err error
		jr, replay, err = openJournal(o.JournalPath, searchKey(&o))
		if err != nil {
			return nil, err
		}
		defer jr.close()
	}

	// Stage 1: measure every candidate at its probe size. Outcomes are
	// recorded per candidate; panics in workers become per-candidate
	// errors via parallelFor.
	type outcome struct {
		gf      float64
		err     error
		resumed bool
	}
	outs := make([]outcome, len(candidates))
	var resumed int64
	var mu sync.Mutex
	panics := t.parallelFor(ctx, len(candidates), func(i int) error {
		p := candidates[i]
		name := p.Name()
		if e, ok := replay[name]; ok {
			out := outcome{gf: e.GFlops, resumed: true}
			if e.Cause != "" {
				out.err = causeError(parseRejectCause(e.Cause))
			}
			outs[i] = out
			mu.Lock()
			resumed++
			mu.Unlock()
			return nil
		}
		if err := ctx.Err(); err != nil {
			outs[i] = outcome{err: err}
			return nil
		}
		n := ProbeSize(o.Device, &p)
		gf, err := t.eval(ctx, o.Device, &p, n)
		outs[i] = outcome{gf: gf, err: err}
		if err == nil {
			jr.append(name, gf, "")
		} else if !errors.Is(err, context.Canceled) {
			// Interruption is a property of the run, not the candidate:
			// only journal candidate-attributable failures.
			jr.append(name, 0, CauseOf(err).String())
		}
		return nil
	})
	for i, perr := range panics {
		if perr != nil {
			outs[i].err = perr
			jr.append(candidates[i].Name(), 0, CauseOf(perr).String())
		}
	}
	if err := ctx.Err(); err != nil {
		if jr != nil {
			return nil, fmt.Errorf("%w: %v (stage-1 progress journaled)", ErrInterrupted, err)
		}
		return nil, fmt.Errorf("%w: %v", ErrInterrupted, err)
	}

	stats.Measured = len(candidates)
	stats.Resumed = int(resumed)
	results := make([]Result, 0, len(candidates))
	for i, out := range outs {
		if out.err != nil {
			stats.addReject(CauseOf(out.err), 1)
			continue
		}
		results = append(results, Result{Params: candidates[i], Probe: out.gf})
	}
	stats.Tested = len(results)
	if len(results) == 0 {
		return nil, fmt.Errorf("%w: all %d stage-1 candidates failed (%s)",
			ErrNoViableKernel, len(candidates), rejectSummary(stats.RejectedBy))
	}
	sort.SliceStable(results, func(i, j int) bool { return results[i].Probe > results[j].Probe })

	// Correctness gate (paper's "passed testing"): walk the ranking,
	// admitting only kernels whose simulated execution matches the
	// reference, until Finalists survive or the ranking is exhausted.
	finalists, verified := t.gateFinalists(ctx, results, o.Finalists, &stats)
	stats.Verified = verified
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInterrupted, err)
	}
	if len(finalists) == 0 {
		return nil, fmt.Errorf("%w: every tested kernel failed the correctness gate",
			ErrNoViableKernel)
	}

	// Stage 2: re-measure finalists across sizes.
	stage2Evals := 0
	t.parallelFor(ctx, len(finalists), func(i int) error {
		t.curve(ctx, &finalists[i])
		return nil
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInterrupted, err)
	}
	for i := range finalists {
		stage2Evals += len(finalists[i].Curve)
	}

	// Stage 3: select the fastest kernel.
	best := 0
	for i := 1; i < len(finalists); i++ {
		if finalists[i].Best > finalists[best].Best {
			best = i
		}
	}

	stats.Stage2 = len(finalists)
	stats.Stage2Evals = stage2Evals
	stats.ProbeSize = ProbeSize(o.Device, &finalists[0].Params)
	return &Selection{
		Best:      finalists[best],
		Finalists: append([]Result(nil), finalists...),
		Stats:     stats,
	}, nil
}

// gateFinalists selects up to want finalists from the ranked results,
// applying the correctness gate when enabled. Disqualified kernels are
// tallied under RejectWrongResult (or the verifier's cause) and the
// next-ranked candidates take their place.
func (t *Tuner) gateFinalists(ctx context.Context, ranked []Result, want int, stats *Stats) (finalists []Result, verified int) {
	if !t.opts.Verify {
		if want > len(ranked) {
			want = len(ranked)
		}
		return ranked[:want:want], 0
	}
	next := 0
	for len(finalists) < want && next < len(ranked) {
		n := want - len(finalists)
		if n > len(ranked)-next {
			n = len(ranked) - next
		}
		batch := ranked[next : next+n]
		next += n
		verrs := make([]error, len(batch))
		panics := t.parallelFor(ctx, len(batch), func(i int) error {
			verrs[i] = t.opts.Verifier(t.opts.Device, &batch[i].Params)
			return nil
		})
		if ctx.Err() != nil {
			break
		}
		for i := range batch {
			err := verrs[i]
			if err == nil {
				err = panics[i]
			}
			if err != nil {
				stats.addReject(CauseOf(err), 1)
				continue
			}
			verified++
			finalists = append(finalists, batch[i])
		}
	}
	return finalists, verified
}

// rejectSummary formats a per-cause breakdown for error messages.
func rejectSummary(by map[RejectCause]int) string {
	s := ""
	for c := RejectGeneration; c < numRejectCauses; c++ {
		if n := by[c]; n > 0 {
			if s != "" {
				s += ", "
			}
			s += fmt.Sprintf("%s: %d", c, n)
		}
	}
	if s == "" {
		return "no rejects"
	}
	return s
}

// curve is stage 2 for one kernel: it measures r at every stage-2 size
// up to MaxSize, appending the successful points to r.Curve and
// keeping the fastest in r.Best/r.BestN. Failed sizes are skipped.
func (t *Tuner) curve(ctx context.Context, r *Result) {
	for _, n := range Sizes(r.Params.LCM(), t.opts.MaxSize) {
		gf, err := t.eval(ctx, t.opts.Device, &r.Params, n)
		if err != nil {
			continue
		}
		r.Curve = append(r.Curve, SizedPerf{N: n, GFlops: gf})
		if gf > r.Best {
			r.Best = gf
			r.BestN = n
		}
	}
}

// parallelFor runs fn(0..n-1) over the tuner's worker pool and returns
// per-index errors. A panic inside fn is recovered in the worker and
// converted into an ErrPanic-wrapped error for that index instead of
// crashing the whole search; cancelling ctx stops dispatching further
// indices (in-flight ones finish).
func (t *Tuner) parallelFor(ctx context.Context, n int, fn func(i int) error) []error {
	errs := make([]error, n)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("%w: %v", ErrPanic, r)
			}
		}()
		errs[i] = fn(i)
	}
	workers := t.opts.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				break
			}
			run(i)
		}
		return errs
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	wg.Wait()
	return errs
}
