// Execution engine: reusable GEMM plans.
//
// A Plan amortizes the per-call setup that Run would otherwise repeat —
// simulated context and queue construction, pack/GEMM kernel builds and
// the three padded device buffers — across every call of one padded
// problem shape, the steady-state/setup split GEMMbench and CLTune make
// for reproducible GEMM benchmarking. On top of plans sit a PlanCache
// (plans keyed by padded shape, LRU-bounded) and an Engine (one cache
// per precision), which the public GEMM routine, the one-shot Run and
// the level3 factorizations all route through.
package gemmimpl

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// gemmDims validates operand shapes against C and returns the problem
// dimensions.
func gemmDims[T matrix.Scalar](ta, tb blas.Transpose, a, b, c *matrix.Matrix[T]) (m, n, k int, err error) {
	m, n = c.Rows, c.Cols
	am, ak := a.Rows, a.Cols
	if ta == blas.Trans {
		am, ak = ak, am
	}
	bk, bn := b.Rows, b.Cols
	if tb == blas.Trans {
		bk, bn = bn, bk
	}
	if am != m || bn != n || ak != bk {
		return 0, 0, 0, fmt.Errorf("gemmimpl: dimension mismatch: op(A) %dx%d, op(B) %dx%d, C %dx%d", am, ak, bk, bn, m, n)
	}
	return m, n, ak, nil
}

// operandKey identifies the exact pack a device buffer holds: source
// geometry, storage order, logical transpose flag and a fingerprint of
// the element contents. Matching keys guarantee an identical packed
// result, so the pack (upload + copy kernel) can be skipped.
type operandKey struct {
	rows, cols, stride int
	order              matrix.Order
	transpose          bool
	fp                 uint64
}

func sourceKey[T matrix.Scalar](src *matrix.Matrix[T], transpose bool) operandKey {
	return operandKey{
		rows: src.Rows, cols: src.Cols, stride: src.Stride,
		order: src.Order, transpose: transpose,
		fp: fingerprint(src),
	}
}

// fingerprint hashes the logical elements of m (FNV-1a over the IEEE
// bit patterns, honoring the stride so views hash only their region).
// The state is seeded with the dimensions and storage order so that
// different shapes over one element stream — a 2×8 and a 4×4 view of
// the same backing slice — cannot collide. Hashing is O(elements) but
// far cheaper than the simulated pack kernel it lets the engine skip.
func fingerprint[T matrix.Scalar](m *matrix.Matrix[T]) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h = (h ^ uint64(m.Rows)) * prime64
	h = (h ^ uint64(m.Cols)) * prime64
	h = (h ^ uint64(m.Order)) * prime64
	major, minor := m.Rows, m.Cols
	if m.Order == matrix.ColMajor {
		major, minor = m.Cols, m.Rows
	}
	switch data := any(m.Data).(type) {
	case []float64:
		for r := 0; r < major; r++ {
			for _, v := range data[r*m.Stride : r*m.Stride+minor] {
				h = (h ^ math.Float64bits(v)) * prime64
			}
		}
	case []float32:
		for r := 0; r < major; r++ {
			for _, v := range data[r*m.Stride : r*m.Stride+minor] {
				h = (h ^ uint64(math.Float32bits(v))) * prime64
			}
		}
	}
	return h
}

// bufPool recycles upload-staging device buffers keyed by byte size, so
// steady-state calls allocate no fresh device memory. Buffers in the
// pool stay live in the context accounting until close.
type bufPool struct {
	ctx  *clsim.Context
	free map[int][]*clsim.Buffer
}

func newBufPool(ctx *clsim.Context) *bufPool {
	return &bufPool{ctx: ctx, free: make(map[int][]*clsim.Buffer)}
}

func (p *bufPool) get(size int) (*clsim.Buffer, error) {
	if l := p.free[size]; len(l) > 0 {
		b := l[len(l)-1]
		p.free[size] = l[:len(l)-1]
		return b, nil
	}
	return p.ctx.CreateBuffer(size)
}

func (p *bufPool) put(b *clsim.Buffer) {
	p.free[b.Size()] = append(p.free[b.Size()], b)
}

func (p *bufPool) close() {
	for _, l := range p.free {
		for _, b := range l {
			b.Release()
		}
	}
	p.free = make(map[int][]*clsim.Buffer)
}

// PlanStats counts what a plan did across its lifetime; the reuse
// counters prove when the engine skipped redundant work.
type PlanStats struct {
	// Runs is the number of completed GEMM calls.
	Runs int
	// PackA/PackB/PackC count executed pack kernels per operand.
	PackA, PackB, PackC int
	// ReusedA/ReusedB count calls that skipped the pack because the
	// operand was unchanged since the previous pack.
	ReusedA, ReusedB int
	// SkippedC counts calls with beta == 0, where BLAS semantics forbid
	// reading C and the engine skips its pack entirely.
	SkippedC int
}

// Plan is a reusable GEMM execution plan for one (device, params,
// padded m/n/k, precision) tuple: it owns a persistent simulated
// context and queue, the three padded device buffers, prebuilt pack and
// GEMM kernels, a staging-buffer pool and the host readback slice.
// Repeated calls whose operands pad to the plan's shape run with no
// setup cost, and an unchanged A or B operand skips its upload + pack.
//
// Concurrency: all methods are safe for concurrent use, but calls on
// ONE plan serialize on its mutex (a plan owns a single set of device
// buffers). Cross-shape parallelism comes from running distinct plans
// concurrently — the PlanCache/Engine layers above hand concurrent
// goroutines distinct plans per padded shape, which execute in
// parallel.
type Plan[T matrix.Scalar] struct {
	im         *Impl
	Mp, Np, Kp int

	mu     sync.Mutex
	closed bool

	ctx              *clsim.Context
	q                *clsim.Queue
	bufA, bufB, bufC *clsim.Buffer
	kern             *kernels.GEMM[T]
	packA            *kernels.Pack[T]
	packB            *kernels.Pack[T]
	packC            *kernels.Pack[T]
	pool             *bufPool
	cp               []T // readback staging, Mp*Np

	lastA, lastB operandKey
	haveA, haveB bool
	stats        PlanStats

	tr *obs.Tracer
	o  planObs
}

// planObs holds the plan's resolved metric handles. All handles are
// nil-safe no-ops when the implementation carries no registry, so the
// uninstrumented hot path pays only nil checks.
type planObs struct {
	calls                                            *obs.Counter
	callSec                                          *obs.Histogram
	packASec, packBSec, packCSec, kernelSec, copySec *obs.Histogram
	reusedA, reusedB, skippedC                       *obs.Counter
}

func resolvePlanObs(r *obs.Registry) planObs {
	return planObs{
		calls:     r.Counter("gemm.calls"),
		callSec:   r.Histogram("gemm.call.seconds"),
		packASec:  r.Histogram("gemm.phase.pack.A.seconds"),
		packBSec:  r.Histogram("gemm.phase.pack.B.seconds"),
		packCSec:  r.Histogram("gemm.phase.pack.C.seconds"),
		kernelSec: r.Histogram("gemm.phase.kernel.seconds"),
		copySec:   r.Histogram("gemm.phase.copy.out.seconds"),
		reusedA:   r.Counter("gemm.pack.reused.A"),
		reusedB:   r.Counter("gemm.pack.reused.B"),
		skippedC:  r.Counter("gemm.pack.skipped.C"),
	}
}

// phase wraps one region of a Run with a timing observation and a
// trace span carrying the device and the bytes/flops the region moved.
// With neither a registry nor a tracer attached it calls fn directly.
func (pl *Plan[T]) phase(name string, h *obs.Histogram, bytes, flops int64, fn func() error) error {
	if h == nil && pl.tr == nil {
		return fn()
	}
	sp := pl.tr.Start(name)
	sp.SetBytes(bytes).SetFlops(flops).SetAttr("device", pl.im.Dev.ID)
	start := time.Now()
	err := fn()
	h.Observe(time.Since(start).Seconds())
	sp.End()
	return err
}

// NewPlan builds a plan for problems whose dimensions pad to the same
// shape as (m, n, k). The heavyweight setup (context, buffers, kernel
// builds) happens here, once.
func NewPlan[T matrix.Scalar](im *Impl, m, n, k int) (*Plan[T], error) {
	if m <= 0 || n <= 0 || k <= 0 {
		return nil, fmt.Errorf("gemmimpl: non-positive plan dimensions %dx%dx%d", m, n, k)
	}
	p := im.Params
	mp, np, kp := im.padded(m, n, k)
	esz := p.Precision.Size()
	dev := &clsim.Device{Spec: im.Dev}
	ctx := clsim.NewContext(dev)
	q := clsim.NewQueue(ctx)
	reg := im.Obs()
	q.Workers = im.Workers()
	q.LaunchHook = im.launchHookRef()
	ctx.SetObserver(reg)
	pl := &Plan[T]{
		im: im, Mp: mp, Np: np, Kp: kp,
		ctx: ctx, q: q, pool: newBufPool(ctx),
		cp: make([]T, mp*np),
		tr: im.Trace(),
		o:  resolvePlanObs(reg),
	}
	var err error
	if pl.bufA, err = ctx.CreateBuffer(kp * mp * esz); err != nil {
		pl.Close()
		return nil, err
	}
	if pl.bufB, err = ctx.CreateBuffer(kp * np * esz); err != nil {
		pl.Close()
		return nil, err
	}
	if pl.bufC, err = ctx.CreateBuffer(mp * np * esz); err != nil {
		pl.Close()
		return nil, err
	}
	var zero T
	if pl.kern, err = kernels.NewGEMM(p, mp, np, kp, zero, view[T](pl.bufA), view[T](pl.bufB), zero, view[T](pl.bufC)); err != nil {
		pl.Close()
		return nil, err
	}
	// Pack kernels are built once against the fixed destinations; the
	// per-call source geometry is set by Rebind.
	mk := func(pp codegen.PackParams, r, c int, dst *clsim.Buffer) (*kernels.Pack[T], error) {
		return kernels.NewPack(pp, 0, 0, 0, r, c, nil, view[T](dst))
	}
	if pl.packA, err = mk(codegen.PackParams{Precision: p.Precision, Layout: p.LayoutA, Rb: p.Kwg, Cb: p.Mwg}, kp, mp, pl.bufA); err != nil {
		pl.Close()
		return nil, err
	}
	if pl.packB, err = mk(codegen.PackParams{Precision: p.Precision, Layout: p.LayoutB, Rb: p.Kwg, Cb: p.Nwg}, kp, np, pl.bufB); err != nil {
		pl.Close()
		return nil, err
	}
	if pl.packC, err = mk(codegen.PackParams{Precision: p.Precision, Layout: matrix.LayoutRowMajor, Rb: p.Mwg, Cb: p.Nwg}, mp, np, pl.bufC); err != nil {
		pl.Close()
		return nil, err
	}
	pl.kern.SetObserver(reg)
	for _, pk := range []*kernels.Pack[T]{pl.packA, pl.packB, pl.packC} {
		pk.SetObserver(reg)
	}
	return pl, nil
}

// Context exposes the plan's simulated context (buffer accounting for
// leak tests).
func (pl *Plan[T]) Context() *clsim.Context { return pl.ctx }

// Stats returns a snapshot of the plan's execution counters.
func (pl *Plan[T]) Stats() PlanStats {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.stats
}

// KernelStateAllocs returns how many work-group states the plan's GEMM
// kernel has allocated (kernels.GEMM.StateAllocs): flat across warm
// calls, which the batched zero-alloc tests assert.
func (pl *Plan[T]) KernelStateAllocs() int64 { return pl.kern.StateAllocs() }

// Close releases every device buffer the plan owns (the persistent
// operand buffers and the staging pool). A closed plan rejects Run.
func (pl *Plan[T]) Close() {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if pl.closed {
		return
	}
	pl.closed = true
	for _, b := range []*clsim.Buffer{pl.bufA, pl.bufB, pl.bufC} {
		if b != nil {
			b.Release()
		}
	}
	pl.pool.close()
}

// pack uploads src through a pooled staging buffer and runs the §III-D
// copy kernel into the prebuilt destination. transpose is relative to
// the logical matrix; column-major storage flips the physical flag.
func (pl *Plan[T]) pack(pk *kernels.Pack[T], src *matrix.Matrix[T], transpose bool) error {
	sr, sc := src.Rows, src.Cols
	if src.Order == matrix.ColMajor {
		sr, sc = sc, sr
		transpose = !transpose
	}
	esz := pl.im.Params.Precision.Size()
	bufS, err := pl.pool.get(max(len(src.Data), 1) * esz)
	if err != nil {
		return err
	}
	defer pl.pool.put(bufS)
	if err := writeBuf(pl.q, bufS, src.Data); err != nil {
		return err
	}
	if err := pk.Rebind(sr, sc, src.Stride, transpose, view[T](bufS)); err != nil {
		return err
	}
	return pl.q.RunLockstep(pk, pk.NDRange())
}

// ctxErr wraps a context failure so callers can both errors.Is against
// context.DeadlineExceeded/Canceled and see which phase was abandoned.
func ctxErr(err error, phase string) error {
	return fmt.Errorf("gemmimpl: call abandoned before %s: %w", phase, err)
}

// Run computes C ← alpha·op(A)·op(B) + beta·C on the plan's device
// state. The problem must pad to the plan's shape. When A or B is
// bit-identical to the operand packed by the previous call (same
// geometry, order and contents), its upload and pack are skipped; when
// beta == 0, C is neither read nor packed, per BLAS semantics.
func (pl *Plan[T]) Run(ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	return pl.RunCtx(context.Background(), ta, tb, alpha, a, b, beta, c)
}

// RunCtx is Run with cancellation: the context is checked before every
// phase (pack A/B/C, kernel, copy-out), so a cancelled or deadline-
// expired call returns within one phase of the signal instead of
// finishing the whole tile. A partially-executed call leaves the plan
// consistent — the next Run simply re-packs whatever the abandoned call
// invalidated. The returned error wraps ctx.Err(), so errors.Is against
// context.DeadlineExceeded/context.Canceled works.
func (pl *Plan[T]) RunCtx(ctx context.Context, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	m, n, k, err := gemmDims(ta, tb, a, b, c)
	if err != nil {
		return err
	}
	mp, np, kp := pl.im.padded(m, n, k)
	if mp != pl.Mp || np != pl.Np || kp != pl.Kp {
		return fmt.Errorf("gemmimpl: problem %dx%dx%d pads to %dx%dx%d, plan holds %dx%dx%d",
			m, n, k, mp, np, kp, pl.Mp, pl.Np, pl.Kp)
	}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	return pl.runLocked(ctx, ta, tb, alpha, a, b, beta, c, m, n)
}

// runLocked executes one validated call on the plan's device state.
// Callers hold pl.mu and have checked the padded shape; the strided
// batch path loops it under a single lock hold so the whole batch is
// one plan claim.
func (pl *Plan[T]) runLocked(ctx context.Context, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T], m, n int) error {
	if pl.closed {
		return fmt.Errorf("gemmimpl: Run on closed plan")
	}
	k := a.Cols
	if ta == blas.Trans {
		k = a.Rows
	}
	np := pl.Np
	pl.q.Workers = pl.im.Workers()
	callStart := time.Now()
	esz := int64(pl.im.Params.Precision.Size())

	if err := ctx.Err(); err != nil {
		return ctxErr(err, "pack A")
	}
	keyA := sourceKey(a, ta == blas.NoTrans)
	if pl.haveA && keyA == pl.lastA {
		pl.stats.ReusedA++
		pl.o.reusedA.Inc()
	} else {
		pl.haveA = false
		err := pl.phase("gemm.pack.A", pl.o.packASec, int64(len(a.Data))*esz, 0, func() error {
			return pl.pack(pl.packA, a, ta == blas.NoTrans)
		})
		if err != nil {
			return err
		}
		pl.lastA, pl.haveA = keyA, true
		pl.stats.PackA++
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(err, "pack B")
	}
	keyB := sourceKey(b, tb == blas.Trans)
	if pl.haveB && keyB == pl.lastB {
		pl.stats.ReusedB++
		pl.o.reusedB.Inc()
	} else {
		pl.haveB = false
		err := pl.phase("gemm.pack.B", pl.o.packBSec, int64(len(b.Data))*esz, 0, func() error {
			return pl.pack(pl.packB, b, tb == blas.Trans)
		})
		if err != nil {
			return err
		}
		pl.lastB, pl.haveB = keyB, true
		pl.stats.PackB++
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(err, "pack C")
	}
	if beta == 0 {
		// BLAS: C must not be read when beta == 0. The GEMM kernel
		// overwrites every padded element, so stale device contents
		// (previous calls, NaN/Inf-poisoned host C) never surface.
		pl.stats.SkippedC++
		pl.o.skippedC.Inc()
	} else {
		err := pl.phase("gemm.pack.C", pl.o.packCSec, int64(len(c.Data))*esz, 0, func() error {
			return pl.pack(pl.packC, c, false)
		})
		if err != nil {
			return err
		}
		pl.stats.PackC++
	}

	if err := ctx.Err(); err != nil {
		return ctxErr(err, "kernel")
	}
	pl.kern.SetScalars(alpha, beta)
	err := pl.phase("gemm.kernel", pl.o.kernelSec, 0, int64(blas.FlopCount(m, n, k)), func() error {
		return pl.q.RunLockstep(pl.kern, pl.kern.NDRange())
	})
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return ctxErr(err, "copy out")
	}
	err = pl.phase("gemm.copy.out", pl.o.copySec, int64(len(pl.cp))*esz, 0, func() error {
		if err := readBuf(pl.q, pl.bufC, pl.cp); err != nil {
			return err
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				c.Set(i, j, pl.cp[i*np+j])
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	pl.stats.Runs++
	pl.o.calls.Inc()
	pl.o.callSec.Observe(time.Since(callStart).Seconds())
	return nil
}

// planKey is the padded shape a plan serves.
type planKey struct{ mp, np, kp int }

// cacheEntry is one cached plan plus its lifecycle state. An entry is
// inserted before its plan is built (singleflight placeholder): ready
// is closed when the build finishes, after which exactly one of plan
// and err is set. refs counts calls between claim and release; a
// doomed entry (evicted while in use) is closed by the last release.
type cacheEntry[T matrix.Scalar] struct {
	plan    *Plan[T]
	err     error
	ready   chan struct{}
	refs    int
	lastUse int64
	doomed  bool
}

// DefaultMaxPlans bounds a PlanCache when no explicit limit is given;
// beyond it the least-recently-used idle plan is closed and evicted.
const DefaultMaxPlans = 8

// PlanCache keeps one plan per padded problem shape for an
// implementation, building plans on first use and evicting LRU when
// over capacity. Safe for concurrent use: the heavyweight plan build
// happens outside the cache lock with per-key singleflight, so a cold
// miss for one shape never blocks calls on warm shapes and concurrent
// cold misses for one shape build exactly once.
type PlanCache[T matrix.Scalar] struct {
	im       *Impl
	maxPlans int

	hit, miss, evicted *obs.Counter

	// buildHook, when set, runs in the building goroutine after the
	// singleflight placeholder is published but before NewPlan — with
	// pc.mu NOT held. A non-nil return aborts the build with that
	// error. Tests use it to stall a cold build (proving warm shapes
	// keep running) and to inject build failures.
	buildHook func() error

	mu    sync.Mutex
	seq   int64
	plans map[planKey]*cacheEntry[T]
}

// NewPlanCache creates a cache holding at most maxPlans plans
// (maxPlans <= 0 selects DefaultMaxPlans).
func NewPlanCache[T matrix.Scalar](im *Impl, maxPlans int) *PlanCache[T] {
	if maxPlans <= 0 {
		maxPlans = DefaultMaxPlans
	}
	return &PlanCache[T]{
		im: im, maxPlans: maxPlans, plans: make(map[planKey]*cacheEntry[T]),
		hit:     im.Obs().Counter("gemm.plan.hit"),
		miss:    im.Obs().Counter("gemm.plan.miss"),
		evicted: im.Obs().Counter("gemm.plan.evicted"),
	}
}

// Len returns the number of cached plans.
func (pc *PlanCache[T]) Len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.plans)
}

// Stats sums the counters of every live cached plan (entries still
// being built are skipped).
func (pc *PlanCache[T]) Stats() PlanStats {
	pc.mu.Lock()
	entries := make([]*cacheEntry[T], 0, len(pc.plans))
	for _, e := range pc.plans {
		if e.plan != nil {
			entries = append(entries, e)
		}
	}
	pc.mu.Unlock()
	var out PlanStats
	for _, e := range entries {
		s := e.plan.Stats()
		out.Runs += s.Runs
		out.PackA += s.PackA
		out.PackB += s.PackB
		out.PackC += s.PackC
		out.ReusedA += s.ReusedA
		out.ReusedB += s.ReusedB
		out.SkippedC += s.SkippedC
	}
	return out
}

// Run executes one GEMM through the cache: the plan for the padded
// shape is built on first use and reused afterwards.
func (pc *PlanCache[T]) Run(ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	return pc.RunCtx(context.Background(), ta, tb, alpha, a, b, beta, c)
}

// RunCtx is Run with cancellation, forwarded to the plan's RunCtx.
//
// A cold shape builds its plan outside the cache lock: the call
// publishes a singleflight placeholder, releases pc.mu, and only then
// runs the heavyweight NewPlan, so warm-shape traffic is never
// head-of-line-blocked behind a cold build. Concurrent cold misses for
// one shape build exactly once — the losers wait for the winner's
// build (or their context, whichever ends first).
func (pc *PlanCache[T]) RunCtx(ctx context.Context, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	m, n, k, err := gemmDims(ta, tb, a, b, c)
	if err != nil {
		return err
	}
	e, err := pc.acquire(ctx, m, n, k)
	if err != nil {
		return err
	}
	err = e.plan.RunCtx(ctx, ta, tb, alpha, a, b, beta, c)
	pc.release(e)
	return err
}

// acquire claims the cache entry for the padded shape of (m, n, k),
// building the plan on a cold miss (outside the lock, singleflight).
// On success the returned entry holds a built plan and one claim ref;
// the caller must pc.release it. One acquire/release pair may span any
// number of plan runs — the strided batch path claims once for a whole
// batch.
func (pc *PlanCache[T]) acquire(ctx context.Context, m, n, k int) (*cacheEntry[T], error) {
	mp, np, kp := pc.im.padded(m, n, k)
	key := planKey{mp, np, kp}

	pc.mu.Lock()
	e := pc.plans[key]
	if e == nil {
		// Cold miss: claim the key with an unbuilt entry and build
		// outside the lock. The claim ref keeps eviction from closing
		// the entry mid-build (it may doom it; see release).
		pc.miss.Inc()
		e = &cacheEntry[T]{ready: make(chan struct{}), refs: 1}
		pc.plans[key] = e
		pc.touchLocked(e)
		pc.evictLocked(key)
		pc.mu.Unlock()

		var plan *Plan[T]
		var perr error
		if pc.buildHook != nil {
			perr = pc.buildHook()
		}
		if perr == nil {
			plan, perr = NewPlan[T](pc.im, m, n, k)
		}

		pc.mu.Lock()
		e.plan, e.err = plan, perr
		close(e.ready)
		if perr != nil {
			// A failed build must not poison the key: drop the entry so
			// the next call rebuilds. Waiters still hold e and see e.err.
			if pc.plans[key] == e {
				delete(pc.plans, key)
			}
			pc.releaseLocked(e)
			pc.mu.Unlock()
			return nil, perr
		}
		pc.mu.Unlock()
	} else {
		e.refs++
		pc.touchLocked(e)
		pc.mu.Unlock()
		select {
		case <-e.ready:
		case <-ctx.Done():
			pc.release(e)
			return nil, ctxErr(ctx.Err(), "plan build")
		}
		if e.err != nil {
			pc.release(e)
			return nil, e.err
		}
		pc.hit.Inc()
	}
	return e, nil
}

// touchLocked stamps the entry as most recently used.
func (pc *PlanCache[T]) touchLocked(e *cacheEntry[T]) {
	pc.seq++
	e.lastUse = pc.seq
}

// release drops one claim on the entry, closing a doomed plan when the
// last claim goes.
func (pc *PlanCache[T]) release(e *cacheEntry[T]) {
	pc.mu.Lock()
	pc.releaseLocked(e)
	pc.mu.Unlock()
}

func (pc *PlanCache[T]) releaseLocked(e *cacheEntry[T]) {
	e.refs--
	if e.doomed && e.refs == 0 && e.plan != nil {
		e.plan.Close()
	}
}

// evictLocked drops least-recently-used plans beyond capacity. In-use
// (or still-building) plans are doomed instead of closed; the last
// release closes them.
func (pc *PlanCache[T]) evictLocked(keep planKey) {
	for len(pc.plans) > pc.maxPlans {
		var victim planKey
		var found bool
		for k, e := range pc.plans {
			if k == keep {
				continue
			}
			if !found || e.lastUse < pc.plans[victim].lastUse {
				victim, found = k, true
			}
		}
		if !found {
			return
		}
		e := pc.plans[victim]
		delete(pc.plans, victim)
		pc.evicted.Inc()
		if e.refs == 0 && e.plan != nil {
			e.plan.Close()
		} else {
			e.doomed = true
		}
	}
}

// Close evicts and closes every cached plan.
func (pc *PlanCache[T]) Close() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	for k, e := range pc.plans {
		delete(pc.plans, k)
		if e.refs == 0 && e.plan != nil {
			e.plan.Close()
		} else {
			e.doomed = true
		}
	}
}

// Engine is the precision-complete execution engine for one
// implementation: a plan cache per element type, sharing the Impl's
// device, parameters and Workers option. The public oclgemm.GEMM and
// level3.Engine route every call through one of these.
type Engine struct {
	im  *Impl
	c32 *PlanCache[float32]
	c64 *PlanCache[float64]
}

// NewEngine builds an engine with DefaultMaxPlans-bounded caches.
func NewEngine(im *Impl) *Engine {
	return &Engine{im: im, c32: NewPlanCache[float32](im, 0), c64: NewPlanCache[float64](im, 0)}
}

// Impl returns the implementation the engine serves.
func (e *Engine) Impl() *Impl { return e.im }

// Close releases every plan in both caches.
func (e *Engine) Close() {
	e.c32.Close()
	e.c64.Close()
}

// Cache32 exposes the float32 plan cache (stats for tests and tools).
func (e *Engine) Cache32() *PlanCache[float32] { return e.c32 }

// Cache64 exposes the float64 plan cache.
func (e *Engine) Cache64() *PlanCache[float64] { return e.c64 }

// EngineRun executes one GEMM through the engine's plan cache for T.
func EngineRun[T matrix.Scalar](e *Engine, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	return EngineRunCtx(context.Background(), e, ta, tb, alpha, a, b, beta, c)
}

// EngineRunCtx is EngineRun with cancellation: the serve path's
// deadline-aware entry point into the engine. The context is checked at
// every phase boundary of the underlying plan.
func EngineRunCtx[T matrix.Scalar](ctx context.Context, e *Engine, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	switch any(alpha).(type) {
	case float64:
		return e.c64.RunCtx(ctx, ta, tb, any(alpha).(float64),
			any(a).(*matrix.Matrix[float64]), any(b).(*matrix.Matrix[float64]),
			any(beta).(float64), any(c).(*matrix.Matrix[float64]))
	default:
		return e.c32.RunCtx(ctx, ta, tb, any(alpha).(float32),
			any(a).(*matrix.Matrix[float32]), any(b).(*matrix.Matrix[float32]),
			any(beta).(float32), any(c).(*matrix.Matrix[float32]))
	}
}

// Call is one GEMM of a batch: C ← Alpha·op(A)·op(B) + Beta·C.
type Call[T matrix.Scalar] struct {
	TransA, TransB blas.Transpose
	Alpha          T
	A, B           *matrix.Matrix[T]
	Beta           T
	C              *matrix.Matrix[T]
}

// RunBatch executes the calls in order through the engine, stopping at
// the first error. Calls sharing a padded shape reuse one plan, and
// consecutive calls with an unchanged A or B skip that operand's
// upload and pack — the steady-state serving path for repeated GEMM
// traffic.
func RunBatch[T matrix.Scalar](e *Engine, calls []Call[T]) error {
	return RunBatchCtx(context.Background(), e, calls)
}

// RunBatchCtx is RunBatch with cancellation: a cancelled context stops
// the batch between calls (and within the current call at its next
// phase boundary), reporting how far it got.
func RunBatchCtx[T matrix.Scalar](ctx context.Context, e *Engine, calls []Call[T]) error {
	for i, cl := range calls {
		if err := EngineRunCtx(ctx, e, cl.TransA, cl.TransB, cl.Alpha, cl.A, cl.B, cl.Beta, cl.C); err != nil {
			return fmt.Errorf("batch call %d: %w", i, err)
		}
	}
	return nil
}

// RunBatchEachCtx executes a batch of independent calls with per-call
// contexts, returning one error slot per call instead of stopping at
// the first failure — the serve coalescer's entry point: requests from
// different clients share the warm plan (and pack reuse) of a batch,
// but one expired deadline or bad call must not fail its neighbors. A
// nil or missing context means context.Background; ctxs may be shorter
// than calls. Each non-nil error names its batch index in the chain
// (and still unwraps to the underlying cause), so an aggregated report
// identifies which call failed.
func RunBatchEachCtx[T matrix.Scalar](e *Engine, ctxs []context.Context, calls []Call[T]) []error {
	errs := make([]error, len(calls))
	for i, cl := range calls {
		ctx := context.Background()
		if i < len(ctxs) && ctxs[i] != nil {
			ctx = ctxs[i]
		}
		if err := EngineRunCtx(ctx, e, cl.TransA, cl.TransB, cl.Alpha, cl.A, cl.B, cl.Beta, cl.C); err != nil {
			errs[i] = fmt.Errorf("batch call %d: %w", i, err)
		}
	}
	return errs
}
