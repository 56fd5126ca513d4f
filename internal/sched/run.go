// Run-time execution: one pool job (single GEMM tiles or strided-batch
// items) driven by per-member unit queues, work stealing and fault
// handling. Each live member gets one worker goroutine that drains its
// own queue head-first and steals from the largest other queue
// tail-first when idle. A transiently-failed unit is retried on the
// same member after a jittered exponential backoff; other failures
// requeue it onto the least-loaded surviving member, and a member that
// keeps failing is quarantined and its queue picked clean by the
// others. A deadline watchdog returns detached (stragglers stage their
// C writes and discard them once the run is abandoned), and one
// degradation ladder — surviving members → single healthiest member →
// opt-in pure-Go BLAS — serves every job kind.
package sched

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/core"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
)

// runState is the shared state of one pool pass: the per-member unit
// queues and the completion accounting, all under one mutex + cond.
// A unit is a *tile: a C tile at (i0, j0), or batch item index at
// (index, 0) spanning the item's m×n.
type runState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	live    []*member
	queues  [][]*tile
	pending int   // units not yet completed (queued or in flight)
	fatal   error // set once; stops every worker
	lastErr error // most recent unit failure (context for the fatal)

	// staged forces every C write through a private copy committed
	// under mu only while the run is still owned (fatal == nil). Set for
	// cancellable contexts: the call may return on deadline while a
	// unit is in flight, and the caller owns C from that moment.
	staged bool
}

// abort raises a fatal error (first writer wins) and wakes every
// worker.
func (rs *runState) abort(err error) {
	rs.mu.Lock()
	if rs.fatal == nil {
		rs.fatal = err
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
}

// aborted reports whether the run already failed.
func (rs *runState) aborted() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.fatal != nil
}

// noteErr records the most recent unit failure for error context.
func (rs *runState) noteErr(err error) {
	rs.mu.Lock()
	rs.lastErr = err
	rs.mu.Unlock()
}

// commit applies a staged unit write unless the run has been abandoned:
// after the call returns, the caller owns C again, so stragglers must not
// touch it. Direct (unstaged) writes pass fn == nil.
func (rs *runState) commit(fn func()) {
	if fn == nil {
		return
	}
	rs.mu.Lock()
	if rs.fatal == nil {
		fn()
	}
	rs.mu.Unlock()
}

// job is one pool call: independent work units, each a whole GEMM
// executed on exactly one member (K is never split, so every element
// keeps the accumulation order of a single-device run), plus the
// call-wide rungs of the degradation ladder. RunCtx (C tiles) and
// RunStridedBatchedCtx (batch items) are its two constructors; one
// ladder, one driver, one worker loop and one executor run both.
type job[T matrix.Scalar] struct {
	ta, tb      blas.Transpose
	alpha, beta T
	// m, n, k is the problem rung 2 prices members on; every unit
	// shares the inner dimension k.
	m, n, k int

	// span names each unit's trace span; label describes a unit in its
	// span and in error chains.
	span  string
	label func(u *tile) (key, val string)
	// queues deals the units to the live members.
	queues func(live []*member, prec matrix.Precision) [][]*tile
	// operands returns a unit's A, B and C views.
	operands func(u *tile) (a, b, c *matrix.Matrix[T])
	// regions are the C regions the call owns: the ladder snapshots and
	// restores exactly these.
	regions []*matrix.Matrix[T]
	// whole runs the entire call on one member's engine (rung 2);
	// reference runs it on the pure-Go BLAS (rung 3).
	whole     func(ctx context.Context, e *gemmimpl.Engine) error
	reference func()
}

// RunCtx executes C ← alpha·op(A)·op(B) + beta·C across the pool's live
// members, honoring the context's deadline and cancellation. C is cut
// into row/column tiles; each tile is one unit. The result is
// bit-identical to a single-device run. The call returns a correct
// result or a typed error, never a hang: a failed pool run degrades to
// the single healthiest member, then (when Options.Fallback is set) to
// the pure-Go BLAS reference, and a deadline returns an
// ErrDeadlineExceeded-wrapped error without waiting for stragglers.
func RunCtx[T matrix.Scalar](ctx context.Context, p *Pool, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	m, n, k, err := gemmimpl.Dims(ta, tb, a, b, c)
	if err != nil {
		return err
	}
	if m == 0 || n == 0 {
		return nil
	}
	if k <= 0 {
		return fmt.Errorf("sched: non-positive k %d", k)
	}
	return runLadder(ctx, p, &job[T]{
		ta: ta, tb: tb, alpha: alpha, beta: beta, m: m, n: n, k: k,
		span: "sched.tile",
		label: func(u *tile) (string, string) {
			return "tile", fmt.Sprintf("%d,%d %dx%d", u.i0, u.j0, u.th, u.tw)
		},
		queues: func(live []*member, prec matrix.Precision) [][]*tile {
			tm, tn := p.tileDims(m, n, len(live))
			return assign(tilesFor(m, n, tm, tn), live, prec, k)
		},
		operands: func(u *tile) (av, bv, cv *matrix.Matrix[T]) {
			if ta == blas.NoTrans {
				av = a.View(u.i0, 0, u.th, k)
			} else {
				av = a.View(0, u.i0, k, u.th)
			}
			if tb == blas.NoTrans {
				bv = b.View(0, u.j0, k, u.tw)
			} else {
				bv = b.View(u.j0, 0, u.tw, k)
			}
			return av, bv, c.View(u.i0, u.j0, u.th, u.tw)
		},
		regions: []*matrix.Matrix[T]{c},
		whole: func(ctx context.Context, e *gemmimpl.Engine) error {
			return gemmimpl.EngineRunCtx(ctx, e, ta, tb, alpha, a, b, beta, c)
		},
		reference: func() { blas.GEMM(ta, tb, alpha, a, b, beta, c) },
	})
}

// runLadder executes a job and returns a correct result or a typed
// error, never a hang: quarantined members due for a probe are
// re-admitted first; a failed pool run degrades to the single
// healthiest member running the whole call, then (when
// Options.Fallback is set) to the pure-Go BLAS reference. On deadline
// it returns an ErrDeadlineExceeded-wrapped error without waiting for
// straggling launches — their C writes are staged and discarded.
func runLadder[T matrix.Scalar](ctx context.Context, p *Pool, j *job[T]) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return p.finish(p.ctxError(err))
	}
	p.admitQuarantined(ctx)
	prec := precisionOf[T]()

	// Ladder restarts need the original C: completed units of a failed
	// rung have already consumed the beta·C addend. Only the job's own
	// C regions are saved and restored — a view's backing slice runs on
	// into elements other callers own. beta == 0 rungs overwrite C
	// fully, so no snapshot is needed.
	var snap []*matrix.Matrix[T]
	if j.beta != 0 {
		for _, r := range j.regions {
			s := matrix.New[T](r.Rows, r.Cols, r.Order)
			copyRegion(s, r)
			snap = append(snap, s)
		}
	}
	restore := func() {
		for i, s := range snap {
			copyRegion(j.regions[i], s)
		}
	}

	var poolErr error
	if live := p.alive(); len(live) > 0 {
		poolErr = runJob(ctx, p, live, prec, j)
		if poolErr == nil {
			return nil
		}
	} else {
		poolErr = p.noDevicesError(0, nil)
	}
	if errors.Is(poolErr, ErrDeadlineExceeded) || ctx.Err() != nil {
		return p.finish(poolErr)
	}

	// Rung 2: the single healthiest member retries the whole call
	// (bit-identical: same kernels, K unsplit).
	if mb := p.healthiest(prec, j.m, j.n, j.k); mb != nil {
		p.o.degradeSingle.Inc()
		sp := mb.tr.Start("sched.degrade")
		sp.SetAttr("rung", "single").SetAttr("device", mb.dev.ID)
		restore()
		err := j.whole(ctx, engineFor[T](mb))
		if err == nil {
			sp.End()
			return nil
		}
		sp.SetAttr("error", err.Error()).End()
		p.noteFailure(mb, err)
		poolErr = fmt.Errorf("%w; single-device retry on %s: %w", poolErr, mb.dev.ID, err)
		if err := ctx.Err(); err != nil {
			restore()
			return p.finish(p.ctxError(err))
		}
	}

	// Rung 3 (opt-in): the pure-Go reference — in-order accumulation,
	// same result up to float32 rounding (bit-exact for float64).
	if p.opts.Fallback {
		p.o.degradeBlas.Inc()
		sp := p.opts.Trace.Start("sched.degrade")
		sp.SetAttr("rung", "blas")
		restore()
		j.reference()
		sp.End()
		return nil
	}
	// Ladder exhausted: hand back the original C (beta != 0) rather
	// than a torn mix of committed units and untouched regions. The
	// workers have joined on every non-deadline path, so no straggler
	// races this write. (On a deadline return above, C keeps whatever
	// units committed before the cutoff — stragglers stage and discard.)
	restore()
	return p.finish(poolErr)
}

// copyRegion copies src's elements into dst (same shape and order),
// touching nothing outside either matrix's own elements.
func copyRegion[T matrix.Scalar](dst, src *matrix.Matrix[T]) {
	lines, n := dst.Rows, dst.Cols
	if dst.Order == matrix.ColMajor {
		lines, n = n, lines
	}
	for l := 0; l < lines; l++ {
		copy(dst.Data[l*dst.Stride:l*dst.Stride+n], src.Data[l*src.Stride:])
	}
}

// ctxError wraps a context error in the pool's typed sentinel.
func (p *Pool) ctxError(err error) error {
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadlineExceeded, err)
	}
	return fmt.Errorf("sched: run canceled: %w", err)
}

// finish counts a deadline outcome exactly once per call on the way
// out.
func (p *Pool) finish(err error) error {
	if errors.Is(err, ErrDeadlineExceeded) {
		p.o.deadlines.Inc()
	}
	return err
}

// noDevicesError builds the all-members-dead error, naming the dead
// devices so the caller can see which members drained away.
func (p *Pool) noDevicesError(pending int, lastErr error) error {
	err := error(ErrNoDevices)
	var dead []string
	for _, mb := range p.members {
		if mb.isDead() {
			dead = append(dead, mb.dev.ID)
		}
	}
	if len(dead) > 0 {
		err = fmt.Errorf("%w (dead members: %s)", err, strings.Join(dead, ", "))
	}
	if pending > 0 {
		err = fmt.Errorf("%w: %d tiles pending", err, pending)
	}
	if lastErr != nil {
		err = fmt.Errorf("%w (last failure: %w)", err, lastErr)
	}
	return err
}

// runJob deals the job's units to the live members and drives the
// worker pool once, returning when every unit committed, a fatal error
// was raised, or the context expired. On expiry it returns immediately
// (detached return): a reaper goroutine joins the workers, whose staged
// writes are discarded, so no goroutine leaks and C is never touched
// after return.
func runJob[T matrix.Scalar](ctx context.Context, p *Pool, live []*member, prec matrix.Precision, j *job[T]) error {
	rs := &runState{
		live:   live,
		queues: j.queues(live, prec),
		staged: ctx.Done() != nil,
	}
	for _, q := range rs.queues {
		rs.pending += len(q)
	}
	rs.cond = sync.NewCond(&rs.mu)

	runStart := time.Now()
	var wg sync.WaitGroup
	for i, mb := range live {
		wg.Add(1)
		go func(me int, mb *member) {
			defer wg.Done()
			worker(ctx, p, rs, me, mb, j)
		}(i, mb)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		p.o.runs.Inc()
		p.o.runSec.Observe(time.Since(runStart).Seconds())
		close(done)
	}()

	select {
	case <-done:
	case <-ctx.Done():
		rs.abort(p.ctxError(ctx.Err()))
		// Workers exit at their next queue visit or staged commit; the
		// reaper above settles the run accounting.
	}

	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.fatal != nil {
		return rs.fatal
	}
	if rs.pending > 0 {
		// Every worker exited (all members dead) with units abandoned.
		return p.noDevicesError(rs.pending, rs.lastErr)
	}
	return nil
}

// worker drains units for one member until the run completes, a fatal
// error is raised, or the member is quarantined. A transient failure is
// retried here on the same member after a backoff; anything else hands
// the unit to tileFailed for requeueing.
func worker[T matrix.Scalar](ctx context.Context, p *Pool, rs *runState, me int, mb *member, j *job[T]) {
	prec := precisionOf[T]()
	for {
		t, stolen, ok := rs.next(me, mb)
		if !ok {
			return
		}
		key, val := j.label(t)
	attempts:
		for {
			sp := mb.tr.Start(j.span)
			sp.SetFlops(int64(blas.FlopCount(t.th, t.tw, j.k))).
				SetAttr("device", mb.dev.ID).
				SetAttr(key, val)
			if stolen {
				sp.SetAttr("stolen", "true")
			}
			start := time.Now()
			commit, err := exec(ctx, rs, mb, j, t)
			busy := time.Since(start).Seconds()
			if err == nil {
				sp.End()
				rs.commit(commit)
				p.tileDone(rs, mb, prec, t, stolen, busy, j.k, j.beta == 0)
				break attempts
			}
			sp.SetAttr("error", err.Error()).End()
			t.attempts++
			err = fmt.Errorf("%s %s: %w", key, val, err)
			rs.noteErr(err)
			quarantined := p.noteFailure(mb, err)
			if !quarantined && t.attempts < p.maxAttempts &&
				errors.Is(err, core.ErrTransient) && !rs.aborted() {
				if !p.backoff(ctx, mb.dev.ID, t) {
					// Context expired mid-backoff; the watchdog (or this
					// abort) surfaces the typed error.
					rs.abort(p.ctxError(ctx.Err()))
					return
				}
				continue attempts
			}
			p.tileFailed(rs, me, mb, t, err)
			break attempts
		}
		if mb.isDead() || rs.aborted() {
			return
		}
	}
}

// backoff sleeps the jittered exponential delay for the tile's attempt
// count; false means the context expired while sleeping.
func (p *Pool) backoff(ctx context.Context, deviceID string, t *tile) bool {
	d := p.backoffDelay(deviceID, t)
	p.o.backoffs.Inc()
	p.o.backoffSec.Observe(d.Seconds())
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// backoffDelay is base·2^(attempt-1) capped at the configured maximum,
// scaled by a deterministic jitter in [0.5, 1.5) keyed on (device,
// tile, attempt) — reproducible runs, no synchronized retry herds.
func (p *Pool) backoffDelay(deviceID string, t *tile) time.Duration {
	d := retryBackoff
	for a := 1; a < t.attempts && d < retryBackoffMax; a++ {
		d *= 2
	}
	if d > retryBackoffMax {
		d = retryBackoffMax
	}
	return time.Duration(float64(d) * (0.5 + hashUnit(deviceID, t.i0, t.j0, t.attempts)))
}

// hashUnit maps the labels to [0,1) deterministically (FNV-1a with a
// murmur-style finalizer, as in faultinject).
func hashUnit(dev string, i0, j0, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d|%d", dev, i0, j0, attempt)
	s := h.Sum64()
	s ^= s >> 33
	s *= 0xff51afd7ed558ccd
	s ^= s >> 33
	s *= 0xc4ceb9fe1a85ec53
	s ^= s >> 33
	return float64(s>>11) / float64(1<<53)
}

// next returns the member's next tile: its own queue's head, else the
// largest other queue's tail (a steal), else it waits for in-flight
// work to finish or fail. ok=false means the worker should exit (run
// complete, fatal error, or member quarantined).
func (rs *runState) next(me int, mb *member) (t *tile, stolen, ok bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	for {
		if rs.fatal != nil || rs.pending == 0 || mb.isDead() {
			return nil, false, false
		}
		if q := rs.queues[me]; len(q) > 0 {
			t, rs.queues[me] = q[0], q[1:]
			return t, false, true
		}
		victim, most := -1, 0
		for i, q := range rs.queues {
			if i != me && len(q) > most {
				victim, most = i, len(q)
			}
		}
		if victim >= 0 {
			q := rs.queues[victim]
			t, rs.queues[victim] = q[len(q)-1], q[:len(q)-1]
			return t, true, true
		}
		// All queues empty but tiles are in flight elsewhere: a failure
		// may still requeue one onto us. Completion, requeue and fatal
		// all broadcast.
		rs.cond.Wait()
	}
}

// exec runs one unit on a member through its engine. The engine reads
// and writes a view only inside its own elements (Plan.pack uploads
// views densely), so units write their disjoint C views directly, even
// when beta != 0. A cancellable run instead stages C through a private
// copy and returns a commit that publishes it, so a straggler's write
// can be discarded after a deadline return.
func exec[T matrix.Scalar](ctx context.Context, rs *runState, mb *member, j *job[T], u *tile) (commit func(), err error) {
	a, b, c := j.operands(u)
	if !rs.staged {
		return nil, gemmimpl.EngineRunCtx(ctx, engineFor[T](mb), j.ta, j.tb, j.alpha, a, b, j.beta, c)
	}
	cw := matrix.New[T](c.Rows, c.Cols, c.Order)
	if j.beta != 0 {
		copyRegion(cw, c)
	}
	if err := gemmimpl.EngineRunCtx(ctx, engineFor[T](mb), j.ta, j.tb, j.alpha, a, b, j.beta, cw); err != nil {
		return nil, err
	}
	return func() { copyRegion(c, cw) }, nil
}

// tileDone records a completed tile and signals waiters when the run
// finishes.
func (p *Pool) tileDone(rs *runState, mb *member, prec matrix.Precision, t *tile, stolen bool, busy float64, k int, skipC bool) {
	// Modeled device time of the tile (pure model, no execution).
	var model float64
	if bd, err := mb.impl(prec).Time(t.th, t.tw, k); err == nil {
		model = bd.TotalSeconds
	}
	cmul := 2 // C read + written
	if skipC {
		cmul = 1
	}
	mb.mu.Lock()
	p.noteSuccessLocked(mb)
	mb.stats.Tiles++
	if stolen {
		mb.stats.Stolen++
	}
	mb.stats.BusySeconds += busy
	mb.stats.ModelSeconds += model
	mb.stats.BytesMoved += int64(t.th*k+k*t.tw+t.th*t.tw*cmul) * int64(prec.Size())
	mb.mu.Unlock()
	mb.o.tiles.Inc()
	if stolen {
		mb.o.steals.Inc()
	}
	mb.o.tileSec.Observe(busy)

	rs.mu.Lock()
	rs.pending--
	if rs.pending == 0 {
		rs.cond.Broadcast()
	}
	rs.mu.Unlock()
}

// tileFailed routes a non-retryable (on this member) failed attempt:
// the tile is requeued onto the least-loaded other surviving member —
// or the call turns fatal when the tile is out of attempts or no
// survivor remains. Member health was already advanced by noteFailure.
func (p *Pool) tileFailed(rs *runState, me int, mb *member, t *tile, err error) {
	rs.mu.Lock()
	switch {
	case rs.fatal != nil:
		// Another worker already failed the run; drop the tile.
	case t.attempts >= p.maxAttempts:
		rs.fatal = fmt.Errorf("sched: %d failed attempts across the pool: %w", t.attempts, err)
	case rs.requeue(t, me):
		p.o.requeues.Inc()
	default:
		rs.fatal = p.noDevicesError(rs.pending, err)
	}
	rs.cond.Broadcast()
	rs.mu.Unlock()
}

// requeue places a failed tile on the least-loaded surviving member,
// preferring a member other than the one it just failed on. Called with
// rs.mu held; reports false when no live member can take it.
func (rs *runState) requeue(t *tile, failedOn int) bool {
	best, bestLen := -1, 0
	for i, mb := range rs.live {
		if i == failedOn || mb.isDead() {
			continue
		}
		if best < 0 || len(rs.queues[i]) < bestLen {
			best, bestLen = i, len(rs.queues[i])
		}
	}
	if best < 0 {
		if rs.live[failedOn].isDead() {
			return false
		}
		best = failedOn // sole survivor retries its own tile
	}
	rs.queues[best] = append(rs.queues[best], t)
	return true
}
