package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

func strategyTuner(t *testing.T, devID string) *Tuner {
	t.Helper()
	d, err := device.ByID(devID)
	if err != nil {
		t.Fatal(err)
	}
	tn, err := New(Options{Device: d, Precision: matrix.Single, MaxSize: 6144})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

func TestSamplerDrawValid(t *testing.T) {
	d := device.Tahiti()
	s := DefaultSpace(d)
	sm := NewSampler(&s, d, matrix.Double, 1)
	for i := 0; i < 200; i++ {
		p, ok := sm.Draw()
		if !ok {
			t.Fatal("sampler could not draw")
		}
		if !p.ValidFor(d) {
			t.Fatalf("invalid draw: %s", p.Name())
		}
		if p.MdimC*p.NdimC > s.MaxWorkGroup || p.Mwi()*p.Nwi() > s.MaxWorkItemTile {
			t.Fatalf("draw violates space bounds: %s", p.Name())
		}
	}
}

func TestSamplerMutateValid(t *testing.T) {
	d := device.Fermi()
	s := DefaultSpace(d)
	sm := NewSampler(&s, d, matrix.Single, 2)
	p, ok := sm.Draw()
	if !ok {
		t.Fatal("no starting point")
	}
	changed := 0
	for i := 0; i < 300; i++ {
		q := sm.Mutate(p)
		if !q.ValidFor(d) {
			t.Fatalf("invalid mutation: %s", q.Name())
		}
		if q != p {
			changed++
		}
		p = q
	}
	if changed < 100 {
		t.Errorf("mutations barely move: %d/300", changed)
	}
}

func TestRandomSearchFindsGoodKernel(t *testing.T) {
	tn := strategyTuner(t, "tahiti")
	res, err := tn.RandomSearch(400, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evals != 400 || len(res.Trace) != 400 {
		t.Fatalf("budget accounting wrong: %d evals, %d trace", res.Evals, len(res.Trace))
	}
	// Trace must be non-decreasing (best-so-far).
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] < res.Trace[i-1] {
			t.Fatal("best-so-far trace decreased")
		}
	}
	// 400 random draws should already find a decent SGEMM kernel.
	if res.Best.Best < 2000 {
		t.Errorf("random search best %f too low", res.Best.Best)
	}
	if len(res.Best.Curve) == 0 {
		t.Error("winner must carry a curve")
	}
}

func TestAnnealConvergesAtLeastAsWellAsRandom(t *testing.T) {
	tn := strategyTuner(t, "fermi")
	budget := 400
	rnd, err := tn.RandomSearch(budget, 11)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := tn.Anneal(budget, 11)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Evals != budget {
		t.Fatalf("anneal evals = %d", ann.Evals)
	}
	// Annealing exploits structure; with equal budgets it should not
	// lose badly to uniform sampling (allow 10% stochastic slack).
	if ann.Best.Probe < 0.9*rnd.Best.Probe {
		t.Errorf("anneal (%.0f) lost badly to random (%.0f)", ann.Best.Probe, rnd.Best.Probe)
	}
}

// All three strategies agree on the neighborhood of the optimum: their
// winners are within a reasonable band of the sampled-exhaustive best.
func TestStrategiesReachExhaustiveBand(t *testing.T) {
	if testing.Short() {
		t.Skip("three searches")
	}
	tn := strategyTuner(t, "cayman")
	ex, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	ann, err := tn.Anneal(1500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Best.Best < 0.85*ex.Best.Best {
		t.Errorf("anneal best %.0f below 85%% of exhaustive %.0f", ann.Best.Best, ex.Best.Best)
	}
	if ann.Best.Best > 1.02*ex.Best.Best {
		t.Errorf("anneal best %.0f implausibly above exhaustive %.0f", ann.Best.Best, ex.Best.Best)
	}
}

// A strategy whose every evaluation errors must return the typed
// no-viable-kernel error — never a winner with zero-value Params.
func TestStrategiesAllFailingEvaluatorReturnsTypedError(t *testing.T) {
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		return 0, fmt.Errorf("%w: broken driver", ErrCompile)
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, Evaluator: eval})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range runStrategies(tn, 50, 1) {
		res, err := run()
		if !errors.Is(err, ErrNoViableKernel) {
			t.Errorf("%s: want ErrNoViableKernel, got %v", name, err)
		}
		if res != nil {
			t.Errorf("%s: want nil result alongside error, got Best=%s", name, res.Best.Params.Name())
		}
	}
}

// A non-positive budget is a caller bug: both strategies must reject it
// up front with the typed error rather than burning evaluations or
// dividing by zero in the cooling schedule.
func TestStrategiesInvalidBudget(t *testing.T) {
	evals := 0
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		evals++
		return 1, nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, Evaluator: eval})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, -3} {
		if _, err := tn.RandomSearch(budget, 1); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("RandomSearch(%d): want ErrInvalidBudget, got %v", budget, err)
		}
		if _, err := tn.Anneal(budget, 1); !errors.Is(err, ErrInvalidBudget) {
			t.Errorf("Anneal(%d): want ErrInvalidBudget, got %v", budget, err)
		}
	}
	if evals != 0 {
		t.Errorf("invalid budgets burned %d evaluations", evals)
	}
}

// Errored evaluations land in the per-cause reject tally — the paper's
// failed-in-compilation/testing accounting — instead of being scored as
// 0 GFlop/s, and an annealing walk never adopts an errored candidate.
func TestStrategyStatsRejectTally(t *testing.T) {
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if p.Algorithm == codegen.DB {
			return 0, fmt.Errorf("%w: DB broken", ErrCompile)
		}
		return float64(p.Mwg), nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, Evaluator: eval})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range runStrategies(tn, 200, 9) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Best.Params.Algorithm == codegen.DB {
			t.Errorf("%s: winner uses the always-failing algorithm", name)
		}
		if res.Stats.RejectedBy[RejectCompile] == 0 {
			t.Errorf("%s: compile failures not tallied: %v", name, res.Stats.RejectedBy)
		}
		if res.Stats.Tested+res.Stats.RejectedBy[RejectCompile] != res.Stats.Measured {
			t.Errorf("%s: tested %d + rejects %d != measured %d", name,
				res.Stats.Tested, res.Stats.RejectedBy[RejectCompile], res.Stats.Measured)
		}
		if res.Stats.Measured != res.Evals {
			t.Errorf("%s: measured %d != evals %d", name, res.Stats.Measured, res.Evals)
		}
	}
}

// With Verify on, strategy winners pass through the same correctness
// gate as Search: disqualified kernels are skipped (and tallied) and
// the best surviving candidate wins.
func TestStrategyWinnersAreGated(t *testing.T) {
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Verify:    true,
		Finalists: 3,
		Verifier: func(d *device.Spec, p *codegen.Params) error {
			if p.VectorWidth != 1 {
				return fmt.Errorf("%w: synthetic disqualification", ErrWrongResult)
			}
			return nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.RandomSearch(200, 13)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Params.VectorWidth != 1 {
		t.Errorf("winner %s did not pass the gate", res.Best.Params.Name())
	}
	if len(res.Finalists) == 0 || res.Finalists[0].Params != res.Best.Params {
		t.Error("Best must be the top-ranked finalist")
	}
	for _, f := range res.Finalists {
		if f.Params.VectorWidth != 1 {
			t.Errorf("finalist %s did not pass the gate", f.Params.Name())
		}
	}
	if res.Stats.Verified != len(res.Finalists) {
		t.Errorf("Verified = %d, want %d", res.Stats.Verified, len(res.Finalists))
	}

	// A gate that rejects everything surfaces the typed error.
	tn2, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Verify:   true,
		Verifier: func(d *device.Spec, p *codegen.Params) error { return ErrWrongResult }})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn2.RandomSearch(50, 13); !errors.Is(err, ErrNoViableKernel) {
		t.Errorf("all-rejecting gate: want ErrNoViableKernel, got %v", err)
	}
}

// Strategies respect restricted spaces (e.g. Bulldozer never draws a
// PL double kernel).
func TestStrategiesRespectDeviceQuirks(t *testing.T) {
	d := device.Bulldozer()
	tn, err := New(Options{Device: d, Precision: matrix.Double, MaxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.RandomSearch(300, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Params.Algorithm == codegen.PL {
		t.Error("random search returned a PL DGEMM kernel on Bulldozer")
	}
}

// runStrategies names the two budgeted strategies for table tests.
func runStrategies(tn *Tuner, budget int, seed int64) map[string]func() (*StrategyResult, error) {
	return map[string]func() (*StrategyResult, error){
		"random": func() (*StrategyResult, error) { return tn.RandomSearch(budget, seed) },
		"anneal": func() (*StrategyResult, error) { return tn.Anneal(budget, seed) },
	}
}

// Both strategies measure through the tuner's evaluator stack: an
// Evaluator or CtxEvaluator override is what they score, and the
// observer counts every evaluation — the budget plus the winner's
// stage-2 sizes.
func TestStrategiesMeasureThroughEvaluatorStack(t *testing.T) {
	score := func(p *codegen.Params, n int) float64 { return float64(p.Mwg*p.Nwg) + float64(n)/1e4 }
	for _, kind := range []string{"plain", "ctx"} {
		var calls atomic.Int64
		reg := obs.NewRegistry()
		opts := Options{Device: device.Tahiti(), Precision: matrix.Single, MaxSize: 4096, Obs: reg}
		if kind == "plain" {
			opts.Evaluator = func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
				calls.Add(1)
				return score(p, n), nil
			}
		} else {
			opts.CtxEvaluator = func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
				calls.Add(1)
				return score(p, n), nil
			}
		}
		tn, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range runStrategies(tn, 60, 4) {
			before := calls.Load()
			evalsBefore := reg.Counter("tune.evals").Value()
			res, err := run()
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			for _, f := range res.Finalists {
				if want := score(&f.Params, ProbeSize(opts.Device, &f.Params)); f.Probe != want {
					t.Errorf("%s/%s: %s probe %v, want the evaluator's %v", kind, name, f.Params.Name(), f.Probe, want)
				}
			}
			sizes := Sizes(res.Best.Params.LCM(), opts.MaxSize)
			if len(res.Best.Curve) != len(sizes) {
				t.Errorf("%s/%s: curve has %d points, want %d", kind, name, len(res.Best.Curve), len(sizes))
			}
			want := int64(res.Evals + len(sizes))
			if got := calls.Load() - before; got != want {
				t.Errorf("%s/%s: evaluator called %d times, want %d evals + %d stage-2 sizes", kind, name, got, res.Evals, len(sizes))
			}
			if got := reg.Counter("tune.evals").Value() - evalsBefore; got != want {
				t.Errorf("%s/%s: tune.evals = %d, want %d", kind, name, got, want)
			}
		}
	}
}

// A done Options.Context stops both strategies with ErrInterrupted,
// whether it was cancelled before the run or during it.
func TestStrategiesInterruptedByContext(t *testing.T) {
	var calls atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, Context: ctx,
		Evaluator: func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
			calls.Add(1)
			return 1, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range runStrategies(tn, 2000, 1) {
		if res, err := run(); !errors.Is(err, ErrInterrupted) || res != nil {
			t.Errorf("%s: pre-cancelled context: want nil result and ErrInterrupted, got %v", name, err)
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("pre-cancelled context still ran %d evaluations", n)
	}

	for _, name := range []string{"random", "anneal"} {
		ctx, cancel := context.WithCancel(context.Background())
		var n atomic.Int64
		tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, Context: ctx,
			CtxEvaluator: func(ctx context.Context, d *device.Spec, p *codegen.Params, _ int) (float64, error) {
				if n.Add(1) == 10 {
					cancel()
					return 0, ctx.Err()
				}
				return 1, nil
			}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := runStrategies(tn, 2000, 1)[name](); !errors.Is(err, ErrInterrupted) {
			t.Errorf("%s: cancelled mid-run: want ErrInterrupted, got %v", name, err)
		}
		if got := n.Load(); got != 10 {
			t.Errorf("%s: %d evaluations ran, want the run to stop at the cancelling 10th", name, got)
		}
		cancel()
	}
}

// A panicking evaluation is rejected as RejectPanic, as in Search,
// instead of crashing the strategy.
func TestStrategiesIsolateEvaluatorPanics(t *testing.T) {
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if p.Kwi == 8 {
			panic("boom")
		}
		return float64(p.Mwg), nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, Evaluator: eval})
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range runStrategies(tn, 200, 3) {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		panics := res.Stats.RejectedBy[RejectPanic]
		if panics == 0 || res.Stats.Tested+panics != res.Stats.Measured {
			t.Errorf("%s: tested %d + panics %d != measured %d", name, res.Stats.Tested, panics, res.Stats.Measured)
		}
		if res.Best.Params.Kwi == 8 {
			t.Errorf("%s: a panicking kernel won", name)
		}
	}
}
