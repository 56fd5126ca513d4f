package faultinject

import (
	"reflect"
	"testing"
	"time"

	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

// chaosConfig injects ~35% mixed faults: the acceptance bar for the
// fault-tolerant engine.
var chaosConfig = Config{
	Seed:            1,
	CompileRate:     0.10,
	HangRate:        0.05,
	TransientRate:   0.08,
	PanicRate:       0.04,
	WrongResultRate: 0.08,
	NoiseFrac:       0.02,
}

// chaosSearch runs a full three-stage search with the injector wired
// into every layer: evaluator faults, timeout + retry middleware, and
// the correctness gate.
func chaosSearch(t *testing.T, cfg Config, retries int) (*core.Selection, *Injector) {
	t.Helper()
	in := mustNew(t, cfg)
	tn, err := core.New(core.Options{
		Device:        device.Tahiti(),
		Precision:     matrix.Single,
		MaxCandidates: 600,
		Finalists:     10,
		CtxEvaluator:  in.Evaluator(core.AdaptEvaluator(core.ModelEvaluator)),
		// Only injected hangs may reach the deadline: non-hang model
		// evaluations took at most 8 ms under the race detector on a
		// loaded 2-vCPU host, so the margin keeps the per-cause
		// counts independent of host speed.
		EvalTimeout: 100 * time.Millisecond,
		MaxRetries:  retries,
		Verify:      true,
		Verifier:    in.Verifier(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	return sel, in
}

// The search must complete under ≥25% mixed faults, never select an
// injected-fault kernel, and account every injected fault in the
// per-cause reject tally.
func TestChaosSearchSurvivesMixedFaults(t *testing.T) {
	sel, in := chaosSearch(t, chaosConfig, 2)

	// The selection must be a clean kernel: wrong-result kernels are
	// disqualified by the gate, failed kernels never reach the ranking.
	if in.IsWrong(&sel.Best.Params) {
		t.Fatalf("selected an injected wrong-result kernel: %s", sel.Best.Params.Name())
	}
	switch c := in.ClassOf(sel.Best.Params.Name()); c {
	case None, Transient: // transient recovered via retry: acceptable
	default:
		t.Fatalf("selected a kernel with injected fault %s", c)
	}
	for _, f := range sel.Finalists {
		if in.IsWrong(&f.Params) {
			t.Errorf("wrong-result kernel survived the gate: %s", f.Params.Name())
		}
	}
	if sel.Best.Best <= 0 || len(sel.Best.Curve) == 0 {
		t.Error("winner must carry a real stage-2 curve")
	}

	// Reject counts must equal the injected fault tally, cause by
	// cause.
	counts := in.InjectedCounts()
	by := sel.Stats.RejectedBy
	if by[core.RejectCompile] != counts[Compile] {
		t.Errorf("compile rejects %d != injected %d", by[core.RejectCompile], counts[Compile])
	}
	if by[core.RejectTimeout] != counts[Hang] {
		t.Errorf("timeout rejects %d != injected hangs %d", by[core.RejectTimeout], counts[Hang])
	}
	if by[core.RejectPanic] != counts[Panic] {
		t.Errorf("panic rejects %d != injected panics %d", by[core.RejectPanic], counts[Panic])
	}
	if by[core.RejectTransient] != 0 {
		t.Errorf("transient faults must be recovered by retry, %d rejected", by[core.RejectTransient])
	}
	if counts[Transient] == 0 {
		t.Error("chaos run injected no transient faults; rates too low to prove retry")
	}
	if by[core.RejectWrongResult] != in.GatedWrongResults() {
		t.Errorf("wrong-result rejects %d != gated %d", by[core.RejectWrongResult], in.GatedWrongResults())
	}

	// Ledger: every measured candidate is either tested or rejected
	// for an evaluation-level cause.
	evalRejects := by[core.RejectCompile] + by[core.RejectTimeout] + by[core.RejectPanic] + by[core.RejectTransient]
	if sel.Stats.Tested+evalRejects != sel.Stats.Measured {
		t.Errorf("tested %d + eval rejects %d != measured %d",
			sel.Stats.Tested, evalRejects, sel.Stats.Measured)
	}
	injectedTotal := counts[Compile] + counts[Hang] + counts[Panic]
	if injectedTotal == 0 || evalRejects != injectedTotal {
		t.Errorf("eval rejects %d != injected fatal faults %d", evalRejects, injectedTotal)
	}
	if sel.Stats.Verified != len(sel.Finalists) {
		t.Errorf("verified %d != finalists %d", sel.Stats.Verified, len(sel.Finalists))
	}
}

// The same seed must reproduce the identical selection and statistics
// regardless of goroutine scheduling.
func TestChaosSearchDeterministic(t *testing.T) {
	a, _ := chaosSearch(t, chaosConfig, 2)
	b, _ := chaosSearch(t, chaosConfig, 2)
	if a.Best.Params != b.Best.Params {
		t.Errorf("chaos selection must be deterministic:\n%s\n%s",
			a.Best.Params.Name(), b.Best.Params.Name())
	}
	if a.Best.Best != b.Best.Best {
		t.Errorf("best performance differs: %v vs %v", a.Best.Best, b.Best.Best)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Errorf("stats differ:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// Without retries, the injected transient faults must surface in the
// reject tally instead (the engine degrades predictably).
func TestChaosTransientsRejectedWithoutRetry(t *testing.T) {
	sel, in := chaosSearch(t, chaosConfig, 0)
	counts := in.InjectedCounts()
	if counts[Transient] == 0 {
		t.Fatal("no transient faults injected")
	}
	if got := sel.Stats.RejectedBy[core.RejectTransient]; got != counts[Transient] {
		t.Errorf("without retry, transient rejects %d != injected %d", got, counts[Transient])
	}
}

// Random search measures through the same middleware as Search: the
// injector's hangs are reclaimed by EvalTimeout and rejected as
// timeouts, and every draw is either tested or rejected per cause.
func TestStrategyRandomSearchUnderInjectedFaults(t *testing.T) {
	in := mustNew(t, chaosConfig)
	tn, err := core.New(core.Options{
		Device:       device.Tahiti(),
		Precision:    matrix.Single,
		Finalists:    10,
		MaxSize:      4096,
		CtxEvaluator: in.Evaluator(core.AdaptEvaluator(core.ModelEvaluator)),
		EvalTimeout:  100 * time.Millisecond,
		MaxRetries:   2,
		Verify:       true,
		Verifier:     in.Verifier(nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tn.RandomSearch(150, 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := in.InjectedCounts()
	by := res.Stats.RejectedBy
	if counts[Hang] == 0 || by[core.RejectTimeout] < counts[Hang] {
		t.Errorf("timeout rejects %d, want at least the %d distinct injected hangs", by[core.RejectTimeout], counts[Hang])
	}
	if counts[Panic] == 0 || by[core.RejectPanic] < counts[Panic] {
		t.Errorf("panic rejects %d, want at least the %d distinct injected panics", by[core.RejectPanic], counts[Panic])
	}
	evalRejects := by[core.RejectCompile] + by[core.RejectTimeout] + by[core.RejectPanic] + by[core.RejectTransient]
	if res.Stats.Tested+evalRejects != res.Stats.Measured || res.Stats.Measured != res.Evals {
		t.Errorf("tested %d + eval rejects %d != measured %d (evals %d)",
			res.Stats.Tested, evalRejects, res.Stats.Measured, res.Evals)
	}
	if c := in.ClassOf(res.Best.Params.Name()); c != None && c != Transient {
		t.Errorf("selected a kernel with injected fault %s", c)
	}
}
