// Package sched is the multi-device GEMM scheduler: it executes one
// logical C ← α·op(A)·op(B) + β·C across a pool of simulated devices
// drawn from the Table I catalog, each member running the tuned kernel
// the tuning database holds for it.
//
// C is partitioned into row/column tile panels (K is never split, so
// every element's accumulation order — and therefore its bit pattern —
// is identical to a single-device run). Tiles are statically assigned
// by modeled per-device throughput (earliest-completion-time list
// scheduling over perfmodel tile estimates), then rebalanced at run
// time by a work-stealing queue so a slow or faulted member cannot
// stall the join. A transient tile failure is retried on the same
// member after a jittered exponential backoff; other failures requeue
// the tile onto the survivors.
//
// Member health is a per-device state machine rather than a permanent
// flag: healthy → suspect (a recent failure) → quarantined (the
// consecutive-failure threshold, an ErrDeviceDead launch, or Kill) →
// probation (a probe GEMM verified bit-exact against the pure-Go BLAS
// reference) → healthy. Quarantined members take no tiles; they are
// re-probed on later Runs after a cooldown that doubles per failed
// probe, except explicitly Killed members, which wait for Revive.
//
// Single GEMM (RunCtx, C tiles) and strided batch (RunStridedBatchedCtx,
// whole items) are two constructors of one pool job, run by one driver
// and one degradation ladder. A context is threaded through every unit
// so a deadline or cancel returns a typed error instead of hanging;
// when the pool cannot finish a call, it degrades to the single
// healthiest member and — opt-in — to the pure-Go BLAS fallback, so a
// call returns a correct result or a typed error, never a silent wrong
// answer.
//
// Per-member statistics (tiles executed and stolen, bytes moved,
// retries, busy and modeled device time) make the load balance and the
// aggregate speedup observable; Estimate previews both for a problem
// size without executing anything.
package sched

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"oclgemm/internal/device"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/tunedb"
)

// ErrDeviceDead marks kernel launches refused because the member was
// killed or quarantined; the scheduler reroutes the tile and drains the
// member until a probe (or Revive) re-admits it.
var ErrDeviceDead = errors.New("sched: device removed from pool")

// ErrNoDevices reports a Run on a pool whose members are all dead.
var ErrNoDevices = errors.New("sched: no live devices in pool")

// ErrDeadlineExceeded reports a pool call abandoned because its context's
// deadline expired before the call completed. It wraps the context
// error, so errors.Is(err, context.DeadlineExceeded) also holds.
var ErrDeadlineExceeded = errors.New("sched: run deadline exceeded")

// ErrUnpriceable reports that the performance model produced no usable
// (finite, positive) time on any live member, so an Estimate would be
// meaningless rather than merely pessimistic.
var ErrUnpriceable = errors.New("sched: performance model cannot price the problem on any member")

// Scheduling and recovery constants.
const (
	// tilesPerMember is the auto-partitioner's target tile count per
	// live member: enough grain for stealing to rebalance without
	// drowning the modeled time in per-tile copy overhead.
	tilesPerMember = 4
	// failThreshold is the number of consecutive tile failures after
	// which a member is quarantined and drained.
	failThreshold = 3
	// retryBackoff is the base delay of the jittered exponential
	// backoff before retrying a transient tile failure on the same
	// member; the delay doubles per attempt up to retryBackoffMax.
	// Jitter is deterministic per (device, tile, attempt).
	retryBackoff    = time.Millisecond
	retryBackoffMax = 32 * time.Millisecond
	// probeCooldown is how many Runs a quarantined member sits out
	// before its first re-admission probe; every failed probe doubles
	// the wait, capped at 8×. Members removed by Kill are exempt from
	// auto-probing until Revive.
	probeCooldown = 1
	// probationTiles is how many consecutive tiles a re-admitted member
	// must complete before it is fully healthy again. One failure on
	// probation re-quarantines.
	probationTiles = 3
)

// Options configures a pool.
type Options struct {
	// Devices are the pool members (any subset of device.Catalog, one
	// member per entry). Required, at least one.
	Devices []*device.Spec
	// DB supplies tuned kernels per (device, precision); nil selects
	// the paper's Table II database. Members without a record use the
	// tunedb nearest-device fallback.
	DB *tunedb.DB
	// TileM, TileN force the C tile size (0 = auto: a grid of about
	// tilesPerMember tiles per live member, aspect-proportional).
	TileM, TileN int
	// MaxAttempts bounds how often one tile may fail across the whole
	// pool before the call errors out (0 = 2·len(Devices)+2).
	MaxAttempts int
	// Fallback enables the final rung of the degradation ladder: when
	// the pool and the single-device retry both fail, compute the call
	// with the pure-Go BLAS reference instead of returning the error.
	Fallback bool
	// Workers bounds per-launch work-group parallelism on every member
	// (0 = GOMAXPROCS, 1 = serial); members always run concurrently
	// with each other regardless.
	Workers int
	// LaunchHook, when set, is consulted before every kernel launch of
	// every member (fault injection: return an error to fail the
	// launch). It receives the member's device ID and the kernel name.
	LaunchHook func(deviceID, kernelName string) error
	// Obs, when set, receives the pool's execution record: per-member
	// sched.tiles / sched.steals / sched.tile.failures /
	// sched.member.deaths / sched.member.probes /
	// sched.member.probe.failures / sched.member.recoveries counters and
	// sched.tile.seconds histograms (device-labeled), pool-wide
	// sched.runs / sched.run.seconds / sched.requeues /
	// sched.retry.backoffs / sched.deadline.exceeded /
	// sched.degraded.single / sched.degraded.blas, and each member's
	// engine and clsim metrics.
	Obs *obs.Registry
	// Trace, when set, records one span per executed unit — sched.tile
	// or sched.batch.item — plus each member's engine phase spans into
	// its ring buffer.
	Trace *obs.Tracer
}

// DeviceStats is one member's cumulative execution record.
type DeviceStats struct {
	// Device is the member's device ID.
	Device string
	// Kernel32 and Kernel64 describe where each precision's parameters
	// came from ("published kernel for X", "nearest-device kernel from Y").
	Kernel32, Kernel64 string
	// Tiles counts tiles this member completed; Stolen counts how many
	// of those it took from another member's queue.
	Tiles, Stolen int
	// Retries counts tile attempts that failed on this member.
	Retries int
	// BytesMoved totals the host bytes the member's tiles touched
	// (operand panels in, result tiles out).
	BytesMoved int64
	// BusySeconds is wall-clock time spent executing tiles (simulator
	// cost); ModelSeconds is the modeled device time of the same tiles
	// (the paper-world cost the load balance aims to equalize).
	BusySeconds  float64
	ModelSeconds float64
	// Dead reports the member is currently quarantined (killed or
	// drained); a successful probe or Revive clears it.
	Dead bool
	// Health is the member's serve-path health state at snapshot time.
	Health HealthState
}

// memberObs holds one member's pre-resolved, device-labeled
// instruments; the zero value (no registry) no-ops on every call.
type memberObs struct {
	tiles      *obs.Counter
	steals     *obs.Counter
	failures   *obs.Counter
	deaths     *obs.Counter
	probes     *obs.Counter
	probeFails *obs.Counter
	recoveries *obs.Counter
	tileSec    *obs.Histogram
}

func resolveMemberObs(r *obs.Registry, id string) memberObs {
	return memberObs{
		tiles:      r.Counter(obs.Label("sched.tiles", "device", id)),
		steals:     r.Counter(obs.Label("sched.steals", "device", id)),
		failures:   r.Counter(obs.Label("sched.tile.failures", "device", id)),
		deaths:     r.Counter(obs.Label("sched.member.deaths", "device", id)),
		probes:     r.Counter(obs.Label("sched.member.probes", "device", id)),
		probeFails: r.Counter(obs.Label("sched.member.probe.failures", "device", id)),
		recoveries: r.Counter(obs.Label("sched.member.recoveries", "device", id)),
		tileSec:    r.Histogram(obs.Label("sched.tile.seconds", "device", id)),
	}
}

// member is one pool slot: a device plus a persistent execution engine
// (plan cache) per precision, built from the tuning database.
type member struct {
	idx int
	dev *device.Spec

	im32, im64   *gemmimpl.Impl
	eng32, eng64 *gemmimpl.Engine
	how32, how64 string

	o  memberObs
	tr *obs.Tracer

	mu          sync.Mutex
	state       HealthState
	killed      bool // explicit Kill: no auto-probe until Revive
	probing     bool // a probe launch is in flight (hook admits it)
	consecFails int
	consecOK    int   // successful tiles since entering probation
	nextProbe   int64 // run sequence when the next auto-probe is due
	probeWait   int64 // current probe cooldown in runs
	probes      int
	probeFails  int
	recoveries  int
	stats       DeviceStats
}

// isDead reports the member is quarantined and must take no tiles.
func (mb *member) isDead() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.state == Quarantined
}

// refusesLaunch reports whether the member's launch hook must refuse:
// quarantined, unless the launch is the member's own recovery probe.
func (mb *member) refusesLaunch() bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.state == Quarantined && !mb.probing
}

// Pool is a set of devices that jointly execute GEMM calls. Engines,
// statistics and member health persist across calls; Run partitions and
// executes one call. Safe for concurrent use, but concurrent Runs share
// the members (each member serializes its own tiles).
type Pool struct {
	opts    Options
	members []*member

	maxAttempts int

	runSeq atomic.Int64 // Run calls issued; clocks the probe cooldowns

	o poolObs
}

// poolObs holds the pool-wide instruments (zero value no-ops).
type poolObs struct {
	runs          *obs.Counter
	runSec        *obs.Histogram
	requeues      *obs.Counter
	backoffs      *obs.Counter
	backoffSec    *obs.Histogram
	deadlines     *obs.Counter
	degradeSingle *obs.Counter
	degradeBlas   *obs.Counter
}

// New builds a pool: every device resolves its tuned kernel for both
// precisions from the database (with the Table II nearest-device
// fallback) and gets a persistent execution engine.
func New(opts Options) (*Pool, error) {
	if len(opts.Devices) == 0 {
		return nil, errors.New("sched: pool needs at least one device")
	}
	db := opts.DB
	if db == nil {
		db = tunedb.PaperTableII()
	}
	p := &Pool{opts: opts, maxAttempts: opts.MaxAttempts}
	if p.maxAttempts <= 0 {
		p.maxAttempts = 2*len(opts.Devices) + 2
	}
	p.o = poolObs{
		runs:          opts.Obs.Counter("sched.runs"),
		runSec:        opts.Obs.Histogram("sched.run.seconds"),
		requeues:      opts.Obs.Counter("sched.requeues"),
		backoffs:      opts.Obs.Counter("sched.retry.backoffs"),
		backoffSec:    opts.Obs.Histogram("sched.retry.backoff.seconds"),
		deadlines:     opts.Obs.Counter("sched.deadline.exceeded"),
		degradeSingle: opts.Obs.Counter("sched.degraded.single"),
		degradeBlas:   opts.Obs.Counter("sched.degraded.blas"),
	}
	for i, d := range opts.Devices {
		mb, err := p.newMember(i, d, db)
		if err != nil {
			return nil, fmt.Errorf("sched: device %s: %w", d.ID, err)
		}
		p.members = append(p.members, mb)
	}
	return p, nil
}

func (p *Pool) newMember(idx int, d *device.Spec, db *tunedb.DB) (*member, error) {
	mb := &member{idx: idx, dev: d}
	mb.stats.Device = d.ID
	mb.o = resolveMemberObs(p.opts.Obs, d.ID)
	mb.tr = p.opts.Trace
	hook := func(kernelName string) error {
		if mb.refusesLaunch() {
			return fmt.Errorf("%w: %s", ErrDeviceDead, d.ID)
		}
		if p.opts.LaunchHook != nil {
			return p.opts.LaunchHook(d.ID, kernelName)
		}
		return nil
	}
	build := func(prec matrix.Precision) (*gemmimpl.Impl, *gemmimpl.Engine, string, error) {
		rec, how, err := tunedb.LookupOrFallback(db, d, prec)
		if err != nil {
			return nil, nil, "", err
		}
		params, err := rec.Params()
		if err != nil {
			return nil, nil, "", err
		}
		im, err := gemmimpl.New(d, params)
		if err != nil {
			return nil, nil, "", err
		}
		im.SetWorkers(p.opts.Workers)
		im.SetLaunchHook(hook)
		im.SetObservability(p.opts.Obs, p.opts.Trace)
		return im, gemmimpl.NewEngine(im), how, nil
	}
	var err error
	if mb.im32, mb.eng32, mb.how32, err = build(matrix.Single); err != nil {
		return nil, err
	}
	if mb.im64, mb.eng64, mb.how64, err = build(matrix.Double); err != nil {
		mb.eng32.Close()
		return nil, err
	}
	mb.stats.Kernel32, mb.stats.Kernel64 = mb.how32, mb.how64
	return mb, nil
}

// impl returns the member's implementation for a precision.
func (mb *member) impl(prec matrix.Precision) *gemmimpl.Impl {
	if prec == matrix.Double {
		return mb.im64
	}
	return mb.im32
}

// engineFor returns the member's execution engine for the element type.
func engineFor[T matrix.Scalar](mb *member) *gemmimpl.Engine {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return mb.eng64
	}
	return mb.eng32
}

// precisionOf maps the element type to its precision.
func precisionOf[T matrix.Scalar]() matrix.Precision {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return matrix.Double
	}
	return matrix.Single
}

// alive returns the live members.
func (p *Pool) alive() []*member {
	var out []*member
	for _, mb := range p.members {
		if !mb.isDead() {
			out = append(out, mb)
		}
	}
	return out
}

// Size returns the number of pool members, dead ones included.
func (p *Pool) Size() int { return len(p.members) }

// Alive returns the number of live members.
func (p *Pool) Alive() int { return len(p.alive()) }

// Devices returns the member devices in pool order.
func (p *Pool) Devices() []*device.Spec {
	out := make([]*device.Spec, len(p.members))
	for i, mb := range p.members {
		out[i] = mb.dev
	}
	return out
}

// Kill quarantines every member with the device ID: in-flight launches
// fail with ErrDeviceDead, queued tiles are stolen by the survivors,
// and later Runs exclude the member. A killed member is never
// auto-probed; Revive lifts the kill. It reports whether any member
// matched.
func (p *Pool) Kill(deviceID string) bool {
	hit := false
	for _, mb := range p.members {
		if mb.dev.ID == deviceID {
			mb.mu.Lock()
			mb.killed = true
			p.quarantineLocked(mb)
			mb.mu.Unlock()
			hit = true
		}
	}
	return hit
}

// SetWorkers rebounds per-launch work-group parallelism on every
// member (0 = GOMAXPROCS, 1 = serial).
func (p *Pool) SetWorkers(n int) {
	for _, mb := range p.members {
		mb.im32.SetWorkers(n)
		mb.im64.SetWorkers(n)
	}
}

// BlockSize returns a blocking size that keeps a level-3 consumer's
// device GEMM calls at least one work-group panel on every member: the
// maximum Mwg/Nwg across members and precisions.
func (p *Pool) BlockSize() int {
	nb := 1
	for _, mb := range p.members {
		for _, im := range []*gemmimpl.Impl{mb.im32, mb.im64} {
			nb = max(nb, max(im.Params.Mwg, im.Params.Nwg))
		}
	}
	return nb
}

// Stats returns a snapshot of every member's cumulative statistics, in
// pool order.
func (p *Pool) Stats() []DeviceStats {
	out := make([]DeviceStats, len(p.members))
	for i, mb := range p.members {
		mb.mu.Lock()
		out[i] = mb.stats
		out[i].Health = mb.state
		mb.mu.Unlock()
	}
	return out
}

// Close releases every member's cached plans (device buffers, kernels).
// The pool remains usable; the next Run rebuilds plans on demand.
func (p *Pool) Close() {
	for _, mb := range p.members {
		mb.eng32.Close()
		mb.eng64.Close()
	}
}
