package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// The paper's engine measures a heuristically sampled slice of the full
// cross product (Search). This file adds two classic alternatives from
// the autotuning literature — uniform random sampling and simulated
// annealing over the parameter lattice — so the repository can compare
// search strategies at equal evaluation budgets (an extension the paper
// leaves open).

// Sampler draws random valid parameter sets from a space.
type Sampler struct {
	space *Space
	dev   *device.Spec
	prec  matrix.Precision
	rng   *rand.Rand
}

// NewSampler creates a sampler with a deterministic seed.
func NewSampler(s *Space, d *device.Spec, prec matrix.Precision, seed int64) *Sampler {
	return &Sampler{space: s, dev: d, prec: prec, rng: rand.New(rand.NewSource(seed))}
}

func pickOne[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// Draw returns a random valid parameter set, or ok=false if none was
// found within the attempt budget (space too constrained).
func (sm *Sampler) Draw() (codegen.Params, bool) {
	for attempt := 0; attempt < 2000; attempt++ {
		s := sm.space
		sh := pickOne(sm.rng, s.Shared)
		st := pickOne(sm.rng, s.Strides)
		lp := pickOne(sm.rng, s.Layouts)
		mdimC := pickOne(sm.rng, s.MdimC)
		ndimC := pickOne(sm.rng, s.NdimC)
		p := codegen.Params{
			Precision:   sm.prec,
			Algorithm:   pickOne(sm.rng, s.Algorithms),
			Mwg:         pickOne(sm.rng, s.Mwg),
			Nwg:         pickOne(sm.rng, s.Nwg),
			Kwg:         pickOne(sm.rng, s.Kwg),
			MdimC:       mdimC,
			NdimC:       ndimC,
			MdimA:       mdimC,
			NdimB:       ndimC,
			Kwi:         pickOne(sm.rng, s.Kwi),
			VectorWidth: pickOne(sm.rng, s.VectorWidths),
			StrideM:     st.M, StrideN: st.N,
			SharedA: sh.A, SharedB: sh.B,
			LayoutA: lp.A, LayoutB: lp.B,
		}
		if len(s.ReshapeDivisors) > 0 {
			if sh.A {
				p.MdimA = pickOne(sm.rng, s.ReshapeDivisors)
			}
			if sh.B {
				p.NdimB = pickOne(sm.rng, s.ReshapeDivisors)
			}
		}
		wg := p.MdimC * p.NdimC
		if wg < s.MinWorkGroup || wg > s.MaxWorkGroup {
			continue
		}
		if tile := p.Mwi() * p.Nwi(); tile > s.MaxWorkItemTile {
			continue
		}
		if p.ValidFor(sm.dev) {
			return p, true
		}
	}
	return codegen.Params{}, false
}

// Mutate returns a neighbor of p: one randomly chosen dimension is
// re-drawn from the space. Invalid neighbors are retried; if none is
// found, p itself is returned.
func (sm *Sampler) Mutate(p codegen.Params) codegen.Params {
	s := sm.space
	for attempt := 0; attempt < 200; attempt++ {
		q := p
		switch sm.rng.Intn(9) {
		case 0:
			q.Mwg = pickOne(sm.rng, s.Mwg)
		case 1:
			q.Nwg = pickOne(sm.rng, s.Nwg)
		case 2:
			q.Kwg = pickOne(sm.rng, s.Kwg)
		case 3:
			q.MdimC = pickOne(sm.rng, s.MdimC)
			if !q.SharedA || len(s.ReshapeDivisors) == 0 {
				q.MdimA = q.MdimC
			}
		case 4:
			q.NdimC = pickOne(sm.rng, s.NdimC)
			if !q.SharedB || len(s.ReshapeDivisors) == 0 {
				q.NdimB = q.NdimC
			}
		case 5:
			q.Kwi = pickOne(sm.rng, s.Kwi)
		case 6:
			q.VectorWidth = pickOne(sm.rng, s.VectorWidths)
		case 7:
			sh := pickOne(sm.rng, s.Shared)
			q.SharedA, q.SharedB = sh.A, sh.B
			if !sh.A {
				q.MdimA = q.MdimC
			}
			if !sh.B {
				q.NdimB = q.NdimC
			}
		default:
			q.Algorithm = pickOne(sm.rng, s.Algorithms)
			st := pickOne(sm.rng, s.Strides)
			q.StrideM, q.StrideN = st.M, st.N
			lp := pickOne(sm.rng, s.Layouts)
			q.LayoutA, q.LayoutB = lp.A, lp.B
		}
		wg := q.MdimC * q.NdimC
		if wg < s.MinWorkGroup || wg > s.MaxWorkGroup {
			continue
		}
		if tile := q.Mwi() * q.Nwi(); tile > s.MaxWorkItemTile {
			continue
		}
		if q.ValidFor(sm.dev) {
			return q
		}
	}
	return p
}

// StrategyResult is the outcome of a budgeted search strategy.
type StrategyResult struct {
	// Best is the winning kernel: the highest-probe candidate that
	// survived the correctness gate, with its stage-2 curve filled in.
	Best Result
	// Finalists are the gate-surviving candidates ranked by probe
	// performance (Best is Finalists[0]).
	Finalists []Result
	Evals     int
	// Trace records the best-so-far after each evaluation (for
	// convergence plots).
	Trace []float64
	// Stats tallies the run with the same accounting as Search:
	// errored evaluations are rejected per cause, never scored as
	// 0 GFlop/s measurements.
	Stats Stats
}

// recorder is the strategies' measurement record: every candidate is
// measured through the tuner's evaluator stack under Options.Context,
// tallied with Search's accounting, and extends the best-so-far trace.
type recorder struct {
	t      *Tuner
	res    StrategyResult
	tested []Result
	best   float64
}

// measure evaluates p at its probe size. ok reports a measurement; a
// failed evaluation is rejected per cause. Once the context is done,
// err wraps ErrInterrupted.
func (r *recorder) measure(p codegen.Params) (gf float64, ok bool, err error) {
	gf, everr := r.probe(&p)
	if cerr := r.t.opts.Context.Err(); cerr != nil {
		return 0, false, fmt.Errorf("%w: %v", ErrInterrupted, cerr)
	}
	r.res.Evals++
	r.res.Stats.Measured++
	if everr == nil {
		r.res.Stats.Tested++
		r.tested = append(r.tested, Result{Params: p, Probe: gf})
		if gf > r.best {
			r.best = gf
		}
	} else {
		r.res.Stats.addReject(CauseOf(everr), 1)
	}
	r.res.Trace = append(r.res.Trace, r.best)
	return gf, everr == nil, nil
}

// probe runs one evaluation through the stack. Strategies run outside
// parallelFor, so a panic is turned into an ErrPanic error here.
func (r *recorder) probe(p *codegen.Params) (gf float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, v)
		}
	}()
	o := &r.t.opts
	return r.t.eval(o.Context, o.Device, p, ProbeSize(o.Device, p))
}

// RandomSearch evaluates `budget` uniformly drawn candidates at the
// probe size and returns the best gate-surviving one (with its stage-2
// curve filled in). Errored evaluations are rejected per cause; if
// every draw fails, the error wraps ErrNoViableKernel.
func (t *Tuner) RandomSearch(budget int, seed int64) (*StrategyResult, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("%w: random-search budget %d", ErrInvalidBudget, budget)
	}
	o := t.opts
	sm := NewSampler(o.Space, o.Device, o.Precision, seed)
	rec := &recorder{t: t}
	for i := 0; i < budget; i++ {
		p, ok := sm.Draw()
		if !ok {
			return nil, fmt.Errorf("core: random search found no valid candidates")
		}
		if _, _, err := rec.measure(p); err != nil {
			return nil, err
		}
	}
	return t.finishStrategy(rec)
}

// Anneal runs simulated annealing over the parameter lattice for
// `budget` evaluations with a geometric temperature schedule, starting
// from a random valid configuration. Candidates whose evaluation errors
// are rejected outright (tallied per cause in Stats) — they never
// become the current state, so a failing kernel cannot masquerade as a
// 0 GFlop/s measurement and absorb the walk.
func (t *Tuner) Anneal(budget int, seed int64) (*StrategyResult, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("%w: annealing budget %d", ErrInvalidBudget, budget)
	}
	o := t.opts
	sm := NewSampler(o.Space, o.Device, o.Precision, seed)
	cur, ok := sm.Draw()
	if !ok {
		return nil, fmt.Errorf("core: annealing found no valid starting point")
	}
	rec := &recorder{t: t}
	curGF, curOK, err := rec.measure(cur)
	if err != nil {
		return nil, err
	}

	peak := o.Device.PeakGFlops(o.Precision)
	// Temperature in GFlop/s: start accepting ~10%-of-peak regressions,
	// end near hill climbing.
	t0, t1 := 0.10*peak, 0.002*peak
	for i := 1; i < budget; i++ {
		frac := float64(i) / float64(budget)
		temp := t0 * math.Pow(t1/t0, frac)
		cand := sm.Mutate(cur)
		gf, evalOK, err := rec.measure(cand)
		if err != nil {
			return nil, err
		}
		if evalOK && (!curOK || gf >= curGF || sm.rng.Float64() < math.Exp((gf-curGF)/temp)) {
			cur, curGF, curOK = cand, gf, true
		}
	}
	return t.finishStrategy(rec)
}

// finishStrategy turns a strategy's raw measurements into a gated
// selection: rank by probe performance, collapse repeated parameter
// sets, run the correctness gate over the top candidates (when
// Options.Verify is on — exactly the gate Search applies), and measure
// the stage-2 curve of the surviving winner.
func (t *Tuner) finishStrategy(rec *recorder) (*StrategyResult, error) {
	res, tested, ctx := &rec.res, rec.tested, t.opts.Context
	if len(tested) == 0 {
		return nil, fmt.Errorf("%w: all %d strategy evaluations failed (%s)",
			ErrNoViableKernel, res.Evals, rejectSummary(res.Stats.RejectedBy))
	}
	sort.SliceStable(tested, func(i, j int) bool { return tested[i].Probe > tested[j].Probe })
	seen := make(map[codegen.Params]struct{}, len(tested))
	ranked := make([]Result, 0, len(tested))
	for _, r := range tested {
		if _, dup := seen[r.Params]; dup {
			continue
		}
		seen[r.Params] = struct{}{}
		ranked = append(ranked, r)
	}
	finalists, verified := t.gateFinalists(ctx, ranked, t.opts.Finalists, &res.Stats)
	res.Stats.Verified = verified
	if len(finalists) > 0 {
		res.Finalists = finalists
		res.Best = finalists[0]
		t.curve(ctx, &res.Best)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInterrupted, err)
	}
	if len(finalists) == 0 {
		return nil, fmt.Errorf("%w: every strategy candidate failed the correctness gate",
			ErrNoViableKernel)
	}
	return res, nil
}
