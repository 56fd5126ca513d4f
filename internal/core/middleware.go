package core

import (
	"context"
	"fmt"
	"time"

	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/obs"
)

// CtxEvaluator is a context-aware Evaluator: implementations must
// return promptly once ctx is cancelled (the timeout middleware relies
// on it to reclaim hung evaluations).
type CtxEvaluator func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error)

// AdaptEvaluator lifts a plain Evaluator into a CtxEvaluator. The
// wrapped function cannot be interrupted mid-call, so cancellation is
// only checked on entry; model-based evaluators return in microseconds
// and never hang.
func AdaptEvaluator(ev Evaluator) CtxEvaluator {
	return func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return ev(d, p, n)
	}
}

// WithTimeout bounds each evaluation to d. A hung evaluation yields
// ErrTimeout; the underlying call keeps running in its goroutine until
// it honors the cancelled context, which well-behaved CtxEvaluators do.
func WithTimeout(ev CtxEvaluator, d time.Duration) CtxEvaluator {
	if d <= 0 {
		return ev
	}
	return func(ctx context.Context, dev *device.Spec, p *codegen.Params, n int) (float64, error) {
		tctx, cancel := context.WithTimeout(ctx, d)
		defer cancel()
		type out struct {
			gf  float64
			err error
		}
		done := make(chan out, 1)
		go func() {
			// The evaluation leaves the caller's goroutine here, so a
			// panic must be converted to an error in place — the
			// search's parallelFor recovery cannot see it.
			defer func() {
				if r := recover(); r != nil {
					done <- out{0, fmt.Errorf("%w: %v", ErrPanic, r)}
				}
			}()
			gf, err := ev(tctx, dev, p, n)
			done <- out{gf, err}
		}()
		select {
		case o := <-done:
			if o.err != nil && tctx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
				return 0, fmt.Errorf("%w after %v", ErrTimeout, d)
			}
			return o.gf, o.err
		case <-tctx.Done():
			if ctx.Err() != nil {
				return 0, ctx.Err() // outer cancellation, not a hang
			}
			return 0, fmt.Errorf("%w after %v", ErrTimeout, d)
		}
	}
}

// WithObserver times every evaluation into the registry — histogram
// tune.eval.seconds, counters tune.evals and tune.eval.failures — the
// per-candidate measurement record CLTune argues a tuner needs to be
// trusted. An evaluation that panics is counted as a failure on its way
// out. A nil registry passes ev through unchanged.
func WithObserver(ev CtxEvaluator, r *obs.Registry) CtxEvaluator {
	if r == nil {
		return ev
	}
	evals := r.Counter("tune.evals")
	failures := r.Counter("tune.eval.failures")
	seconds := r.Histogram("tune.eval.seconds")
	return func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (gf float64, err error) {
		start, returned := time.Now(), false
		defer func() {
			seconds.Observe(time.Since(start).Seconds())
			evals.Inc()
			if !returned || err != nil {
				failures.Inc()
			}
		}()
		gf, err = ev(ctx, d, p, n)
		returned = true
		return gf, err
	}
}

// WithRetry re-attempts evaluations that fail with an error wrapping
// ErrTransient, up to retries extra attempts with exponential backoff
// starting at backoff (New uses 1ms). Non-transient errors and
// successes pass through unchanged; exhausted retries return the last
// transient error.
func WithRetry(ev CtxEvaluator, retries int, backoff time.Duration) CtxEvaluator {
	if retries <= 0 {
		return ev
	}
	return func(ctx context.Context, d *device.Spec, p *codegen.Params, n int) (float64, error) {
		var gf float64
		var err error
		wait := backoff
		for attempt := 0; ; attempt++ {
			gf, err = ev(ctx, d, p, n)
			if err == nil || CauseOf(err) != RejectTransient || attempt >= retries {
				break
			}
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(wait):
			}
			wait *= 2
		}
		if err != nil && CauseOf(err) == RejectTransient {
			err = fmt.Errorf("after %d attempts: %w", retries+1, err)
		}
		return gf, err
	}
}
