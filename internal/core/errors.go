package core

import (
	"context"
	"errors"
)

// The typed error taxonomy of the search engine. The paper's statistics
// distinguish kernels that "failed in generation, compilation, or
// testing" from tested ones (§III-F); these sentinels let the tuner
// classify every evaluation failure the same way. Evaluators (and the
// fault-injection harness) wrap them with %w so errors.Is works through
// any amount of context.
var (
	// ErrCompile marks a kernel that failed code generation or
	// compilation on the device.
	ErrCompile = errors.New("core: kernel failed compilation")
	// ErrTimeout marks an evaluation that exceeded Options.EvalTimeout
	// (a hung kernel).
	ErrTimeout = errors.New("core: evaluation timed out")
	// ErrWrongResult marks a kernel whose output disagrees with the
	// reference GEMM (the paper's "failed testing").
	ErrWrongResult = errors.New("core: kernel produced wrong results")
	// ErrTransient marks a flaky, retryable measurement failure; the
	// retry middleware re-attempts only errors wrapping this.
	ErrTransient = errors.New("core: transient evaluation failure")
	// ErrPanic marks an evaluation that panicked; parallelFor converts
	// the panic into this per-candidate error instead of crashing the
	// whole search.
	ErrPanic = errors.New("core: evaluation panicked")
	// ErrNoViableKernel reports a search in which every candidate
	// failed evaluation or the correctness gate.
	ErrNoViableKernel = errors.New("core: no viable kernel variant survived the search")
	// ErrInvalidBudget reports a search strategy invoked with a
	// non-positive evaluation budget.
	ErrInvalidBudget = errors.New("core: search budget must be positive")
	// ErrInterrupted reports a search cancelled via Options.Context;
	// completed stage-1 work is preserved in the journal (if enabled)
	// so a re-run resumes instead of restarting.
	ErrInterrupted = errors.New("core: search interrupted")
	// ErrInvalidJournal is the sentinel every checkpoint-journal load
	// error wraps: a journal that cannot be opened or read, a malformed
	// complete line, or a line over 1 MiB.
	ErrInvalidJournal = errors.New("core: cannot load tuning journal")
)

// RejectCause classifies why a candidate was excluded from the tested
// set, mirroring the paper's failed-in-generation/compilation/testing
// accounting.
type RejectCause int

// Reject causes, from space validation through the correctness gate.
const (
	// RejectGeneration: failed parameter validation or device checks
	// during enumeration (never evaluated).
	RejectGeneration RejectCause = iota
	// RejectCompile: the evaluator reported a compilation failure.
	RejectCompile
	// RejectTimeout: the evaluation hung past the per-eval timeout.
	RejectTimeout
	// RejectTransient: a transient failure persisted through all
	// retries.
	RejectTransient
	// RejectWrongResult: the correctness gate disqualified the kernel.
	RejectWrongResult
	// RejectPanic: the evaluation panicked.
	RejectPanic
	// RejectOther: any unclassified evaluation failure.
	RejectOther

	numRejectCauses
)

// String names the cause for reports and journals.
func (c RejectCause) String() string {
	switch c {
	case RejectGeneration:
		return "generation"
	case RejectCompile:
		return "compile"
	case RejectTimeout:
		return "timeout"
	case RejectTransient:
		return "transient"
	case RejectWrongResult:
		return "wrong-result"
	case RejectPanic:
		return "panic"
	default:
		return "other"
	}
}

// parseRejectCause inverts String (journal round trip).
func parseRejectCause(s string) RejectCause {
	for c := RejectGeneration; c < numRejectCauses; c++ {
		if c.String() == s {
			return c
		}
	}
	return RejectOther
}

// CauseOf classifies an evaluation error into a RejectCause.
func CauseOf(err error) RejectCause {
	switch {
	case errors.Is(err, ErrCompile):
		return RejectCompile
	case errors.Is(err, ErrTimeout) || errors.Is(err, context.DeadlineExceeded):
		return RejectTimeout
	case errors.Is(err, ErrTransient):
		return RejectTransient
	case errors.Is(err, ErrWrongResult):
		return RejectWrongResult
	case errors.Is(err, ErrPanic):
		return RejectPanic
	default:
		return RejectOther
	}
}

// causeError reconstructs a sentinel-wrapped error from a journaled
// cause name, so resumed failures classify identically.
func causeError(c RejectCause) error {
	switch c {
	case RejectCompile:
		return ErrCompile
	case RejectTimeout:
		return ErrTimeout
	case RejectTransient:
		return ErrTransient
	case RejectWrongResult:
		return ErrWrongResult
	case RejectPanic:
		return ErrPanic
	default:
		return errors.New("core: evaluation failed (journaled)")
	}
}
