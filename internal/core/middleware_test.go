package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

var probeParams = codegen.Params{Mwg: 32, Nwg: 32, Kwg: 32}

func TestCauseOf(t *testing.T) {
	cases := []struct {
		err  error
		want RejectCause
	}{
		{fmt.Errorf("x: %w", ErrCompile), RejectCompile},
		{fmt.Errorf("x: %w", ErrTimeout), RejectTimeout},
		{context.DeadlineExceeded, RejectTimeout},
		{fmt.Errorf("x: %w", ErrTransient), RejectTransient},
		{fmt.Errorf("x: %w", ErrWrongResult), RejectWrongResult},
		{fmt.Errorf("x: %w", ErrPanic), RejectPanic},
		{errors.New("mystery"), RejectOther},
	}
	for _, c := range cases {
		if got := CauseOf(c.err); got != c.want {
			t.Errorf("CauseOf(%v) = %s, want %s", c.err, got, c.want)
		}
	}
}

func TestRejectCauseStringRoundTrip(t *testing.T) {
	for c := RejectGeneration; c < numRejectCauses; c++ {
		if got := parseRejectCause(c.String()); got != c {
			t.Errorf("parse(%q) = %s", c.String(), got)
		}
	}
	if parseRejectCause("garbage") != RejectOther {
		t.Error("unknown cause must parse as other")
	}
}

func TestWithTimeoutReclaimsHungEvaluation(t *testing.T) {
	hung := func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	ev := WithTimeout(hung, 5*time.Millisecond)
	_, err := ev(context.Background(), device.Tahiti(), &probeParams, 64)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if CauseOf(err) != RejectTimeout {
		t.Errorf("timeout must classify as RejectTimeout")
	}
}

func TestWithTimeoutPassesFastEvaluations(t *testing.T) {
	fast := func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		return 7, nil
	}
	gf, err := WithTimeout(fast, time.Second)(context.Background(), device.Tahiti(), &probeParams, 64)
	if err != nil || gf != 7 {
		t.Fatalf("got (%v, %v), want (7, nil)", gf, err)
	}
}

func TestWithTimeoutOuterCancellationIsNotATimeout(t *testing.T) {
	hung := func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := WithTimeout(hung, time.Minute)(ctx, device.Tahiti(), &probeParams, 64)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("outer cancellation must surface as Canceled, got %v", err)
	}
}

func TestWithRetryRecoversTransientFailures(t *testing.T) {
	var calls atomic.Int64
	flaky := func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if calls.Add(1) <= 2 {
			return 0, fmt.Errorf("%w: flake", ErrTransient)
		}
		return 42, nil
	}
	gf, err := WithRetry(flaky, 3, time.Microsecond)(context.Background(), device.Tahiti(), &probeParams, 64)
	if err != nil || gf != 42 {
		t.Fatalf("retry must recover: got (%v, %v)", gf, err)
	}
	if calls.Load() != 3 {
		t.Errorf("want 3 attempts, got %d", calls.Load())
	}
}

func TestWithRetryExhaustsAndClassifies(t *testing.T) {
	var calls atomic.Int64
	alwaysFlaky := func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		calls.Add(1)
		return 0, fmt.Errorf("%w: persistent flake", ErrTransient)
	}
	_, err := WithRetry(alwaysFlaky, 2, time.Microsecond)(context.Background(), device.Tahiti(), &probeParams, 64)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("exhausted retries must stay transient, got %v", err)
	}
	if calls.Load() != 3 { // initial + 2 retries
		t.Errorf("want 3 attempts, got %d", calls.Load())
	}
}

func TestWithRetryDoesNotRetryNonTransient(t *testing.T) {
	var calls atomic.Int64
	compileFail := func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		calls.Add(1)
		return 0, fmt.Errorf("%w: bad kernel", ErrCompile)
	}
	_, err := WithRetry(compileFail, 5, time.Microsecond)(context.Background(), device.Tahiti(), &probeParams, 64)
	if !errors.Is(err, ErrCompile) || calls.Load() != 1 {
		t.Fatalf("compile errors must not retry: err=%v calls=%d", err, calls.Load())
	}
}

// Panics inside evaluations must become per-candidate rejects, not
// crash the search (exercised with -race over the worker pool).
func TestSearchIsolatesEvaluatorPanics(t *testing.T) {
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if p.Kwi == 8 {
			panic("boom")
		}
		return 100, nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator: eval, MaxCandidates: 1500})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Params.Kwi == 8 {
		t.Error("a panicking kernel must not be selected")
	}
	if sel.Stats.RejectedBy[RejectPanic] == 0 {
		t.Error("panics must be tallied under RejectPanic")
	}
	if sel.Stats.Tested+sel.Stats.RejectedBy[RejectPanic] != sel.Stats.Measured {
		t.Errorf("accounting broken: tested %d + panics %d != measured %d",
			sel.Stats.Tested, sel.Stats.RejectedBy[RejectPanic], sel.Stats.Measured)
	}
}

// The observer counts an evaluation that panics: with no timeout
// middleware to turn the panic into an error, tune.evals still equals
// the evaluator's invocations, and each panic is a failure.
func TestObserverCountsPanickingEvaluations(t *testing.T) {
	var calls, panics atomic.Int64
	reg := obs.NewRegistry()
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single, MaxCandidates: 300, Obs: reg,
		Evaluator: func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
			calls.Add(1)
			if p.Kwi == 8 {
				panics.Add(1)
				panic("boom")
			}
			return 100, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Search(); err != nil {
		t.Fatal(err)
	}
	if panics.Load() == 0 {
		t.Fatal("no evaluation panicked; the test is vacuous")
	}
	if got, want := reg.Counter("tune.evals").Value(), calls.Load(); got != want {
		t.Errorf("tune.evals = %d, want the evaluator's %d invocations", got, want)
	}
	if got, want := reg.Counter("tune.eval.failures").Value(), panics.Load(); got != want {
		t.Errorf("tune.eval.failures = %d, want the %d panics", got, want)
	}
	if got, want := reg.Histogram("tune.eval.seconds").Count(), calls.Load(); got != want {
		t.Errorf("tune.eval.seconds holds %d observations, want %d", got, want)
	}
}

// When every candidate fails, Search must return the typed error
// instead of selecting a zero-GFlop/s failed kernel.
func TestSearchAllFailuresReturnsNoViableKernel(t *testing.T) {
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		return 0, fmt.Errorf("%w: everything is broken", ErrCompile)
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator: eval, MaxCandidates: 500})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tn.Search()
	if !errors.Is(err, ErrNoViableKernel) {
		t.Fatalf("want ErrNoViableKernel, got %v", err)
	}
}

// Evaluation failures move into the per-cause reject tally instead of
// being scored 0 and counted as tested (the paper's Table III
// accounting).
func TestStatsRejectBreakdown(t *testing.T) {
	eval := func(d *device.Spec, p *codegen.Params, n int) (float64, error) {
		switch {
		case p.Algorithm == codegen.DB:
			return 0, fmt.Errorf("%w: DB broken", ErrCompile)
		case p.Kwi == 16:
			return 0, fmt.Errorf("%w: flaky", ErrTransient)
		}
		return 100, nil
	}
	tn, err := New(Options{Device: device.Tahiti(), Precision: matrix.Single,
		Evaluator: eval, MaxCandidates: 2000})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tn.Search()
	if err != nil {
		t.Fatal(err)
	}
	by := sel.Stats.RejectedBy
	if by[RejectCompile] == 0 || by[RejectTransient] == 0 {
		t.Fatalf("want compile and transient rejects, got %v", by)
	}
	evalRejects := by[RejectCompile] + by[RejectTransient]
	if sel.Stats.Tested+evalRejects != sel.Stats.Measured {
		t.Errorf("tested %d + eval rejects %d != measured %d",
			sel.Stats.Tested, evalRejects, sel.Stats.Measured)
	}
	total := 0
	for _, n := range by {
		total += n
	}
	if total != sel.Stats.Rejected {
		t.Errorf("per-cause sum %d != Rejected %d", total, sel.Stats.Rejected)
	}
}
