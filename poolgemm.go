package oclgemm

import (
	"context"

	"oclgemm/internal/sched"
)

// PoolOptions configures a multi-device GEMM pool.
type PoolOptions struct {
	// Devices are the pool members — any subset of DeviceCatalog (nil
	// selects the paper's full Table I set, Devices()).
	Devices []*Device
	// DB supplies the tuned kernel per (device, precision); nil selects
	// the paper's published Table II database. Devices without a record
	// fall back to the nearest catalogued device of the same kind.
	DB *TuningDB
	// TileM, TileN force the C tile size (0 = automatic, sized from the
	// live member count).
	TileM, TileN int
	// Workers bounds per-launch work-group parallelism on each member
	// (0 = GOMAXPROCS); members always run concurrently with each other.
	Workers int
	// Fallback enables the last rung of the degradation ladder: when the
	// pool and the single-device retry both fail, the call is computed
	// with the pure-Go BLAS reference instead of returning the error
	// (in-order accumulation — bit-exact for float64, within rounding
	// for float32).
	Fallback bool
	// LaunchHook, when set, is consulted before every kernel launch on
	// every member (fault injection: return an error to fail the
	// launch). It receives the member's device ID and the kernel name.
	LaunchHook func(deviceID, kernelName string) error
	// Metrics, when set, receives the pool's execution record:
	// device-labeled per-member tile/steal/failure/death counters and
	// tile-time histograms, pool-wide run counters, and every member
	// engine's per-phase and runtime metrics.
	Metrics *Metrics
	// Trace, when set, records one span per executed tile plus the
	// members' engine phase spans into its ring buffer.
	Trace *Trace
}

// PoolDeviceStats is one member's cumulative execution record: tiles
// executed and stolen, retries, bytes moved, busy and modeled time.
type PoolDeviceStats = sched.DeviceStats

// PoolEstimate is the modeled outcome of partitioning a problem across
// the pool (per-member shares, makespan, aggregate GFlop/s and speedup
// over the best single member).
type PoolEstimate = sched.Estimate

// ErrDeviceDead marks kernel launches refused because a pool member was
// killed or quarantined; errors.Is(err, ErrDeviceDead) identifies them.
var ErrDeviceDead = sched.ErrDeviceDead

// ErrNoDevices reports a pool call with every member dead; the error
// chain names the dead devices.
var ErrNoDevices = sched.ErrNoDevices

// ErrDeadlineExceeded reports a pool call abandoned at its context
// deadline; it also matches errors.Is(err, context.DeadlineExceeded).
var ErrDeadlineExceeded = sched.ErrDeadlineExceeded

// PoolHealthState is a member's position in the pool's health state
// machine: healthy → suspect → quarantined → probation → healthy.
type PoolHealthState = sched.HealthState

// Pool member health states (see DESIGN.md §11).
const (
	PoolHealthy     = sched.Healthy
	PoolSuspect     = sched.Suspect
	PoolProbation   = sched.Probation
	PoolQuarantined = sched.Quarantined
)

// PoolMemberHealth is one member's health snapshot: state, kill flag,
// consecutive failures, and lifetime probe/recovery counts.
type PoolMemberHealth = sched.MemberHealth

// PoolGEMM executes one logical C ← α·op(A)·op(B) + β·C across a pool
// of simulated devices. C is partitioned into row/column tiles (never
// over K, so results are bit-identical to a single-device run),
// statically assigned by modeled per-device throughput and rebalanced
// at run time by work stealing. A member whose tiles keep failing is
// declared dead and drained; its work is requeued onto the survivors.
//
//	pg, _ := oclgemm.NewPoolGEMM(oclgemm.PoolOptions{})   // full Table I pool
//	defer pg.Close()
//	_ = pg.Run(oclgemm.NoTrans, oclgemm.NoTrans, 1, a, b, 0, c)
//	for _, st := range pg.Stats() { fmt.Println(st.Device, st.Tiles) }
type PoolGEMM struct {
	pool *sched.Pool
}

// NewPoolGEMM builds the pool: every device resolves its tuned kernel
// for both precisions (Table II, with the nearest-device fallback) and
// gets a persistent execution engine.
func NewPoolGEMM(opts PoolOptions) (*PoolGEMM, error) {
	devs := opts.Devices
	if len(devs) == 0 {
		devs = Devices()
	}
	pool, err := sched.New(sched.Options{
		Devices:    devs,
		DB:         opts.DB,
		TileM:      opts.TileM,
		TileN:      opts.TileN,
		Workers:    opts.Workers,
		Fallback:   opts.Fallback,
		LaunchHook: opts.LaunchHook,
		Obs:        opts.Metrics,
		Trace:      opts.Trace,
	})
	if err != nil {
		return nil, err
	}
	return &PoolGEMM{pool: pool}, nil
}

// PoolRun computes C ← alpha·op(A)·op(B) + beta·C across the pool's
// live members, bit-identical to a single-device run.
func PoolRun[T Scalar](pg *PoolGEMM, transA, transB Transpose, alpha T, a, b *Matrix[T], beta T, c *Matrix[T]) error {
	return sched.RunCtx(context.Background(), pg.pool, transA, transB, alpha, a, b, beta, c)
}

// PoolRunCtx is PoolRun honoring a context: the call returns a correct
// result or a typed error before the deadline, never a hang. Members
// quarantined by earlier faults are re-probed (and re-admitted when
// their probe GEMM verifies bit-exact) first; a failed pool run
// degrades to the single healthiest member and — when
// PoolOptions.Fallback is set — to the pure-Go BLAS reference. On
// deadline the error matches both ErrDeadlineExceeded and
// context.DeadlineExceeded, and C is left unmodified by any straggling
// tile.
func PoolRunCtx[T Scalar](ctx context.Context, pg *PoolGEMM, transA, transB Transpose, alpha T, a, b *Matrix[T], beta T, c *Matrix[T]) error {
	return sched.RunCtx(ctx, pg.pool, transA, transB, alpha, a, b, beta, c)
}

// Run is the convenience method for float64 (DGEMM).
func (pg *PoolGEMM) Run(transA, transB Transpose, alpha float64, a, b *Matrix[float64], beta float64, c *Matrix[float64]) error {
	return sched.RunCtx(context.Background(), pg.pool, transA, transB, alpha, a, b, beta, c)
}

// RunCtx is the context-honoring variant of Run (see PoolRunCtx).
func (pg *PoolGEMM) RunCtx(ctx context.Context, transA, transB Transpose, alpha float64, a, b *Matrix[float64], beta float64, c *Matrix[float64]) error {
	return sched.RunCtx(ctx, pg.pool, transA, transB, alpha, a, b, beta, c)
}

// RunSingle is the float32 (SGEMM) counterpart of Run.
func (pg *PoolGEMM) RunSingle(transA, transB Transpose, alpha float32, a, b *Matrix[float32], beta float32, c *Matrix[float32]) error {
	return sched.RunCtx(context.Background(), pg.pool, transA, transB, alpha, a, b, beta, c)
}

// RunSingleCtx is the context-honoring variant of RunSingle (see
// PoolRunCtx).
func (pg *PoolGEMM) RunSingleCtx(ctx context.Context, transA, transB Transpose, alpha float32, a, b *Matrix[float32], beta float32, c *Matrix[float32]) error {
	return sched.RunCtx(ctx, pg.pool, transA, transB, alpha, a, b, beta, c)
}

// PoolGEMMStridedBatched executes a strided batch (see StridedBatch)
// across the pool: only the batch index is partitioned — each item is
// one whole GEMM on one member — so results are bit-identical to
// looping single GEMMs. Spans are dealt by modeled per-member
// throughput and rebalanced by work stealing; a failed pool pass
// degrades to the healthiest single member running the whole batch on
// one warm plan, then (with PoolOptions.Fallback) to the pure-Go BLAS
// reference.
func PoolGEMMStridedBatched[T Scalar](pg *PoolGEMM, sb *StridedBatch[T]) error {
	return sched.RunStridedBatchedCtx(context.Background(), pg.pool, sb)
}

// PoolGEMMStridedBatchedCtx is PoolGEMMStridedBatched honoring a
// context: on deadline the error matches both ErrDeadlineExceeded and
// context.DeadlineExceeded, and straggling items stage their writes so
// C is never touched after return.
func PoolGEMMStridedBatchedCtx[T Scalar](ctx context.Context, pg *PoolGEMM, sb *StridedBatch[T]) error {
	return sched.RunStridedBatchedCtx(ctx, pg.pool, sb)
}

// Devices returns the member devices in pool order (dead ones
// included).
func (pg *PoolGEMM) Devices() []*Device { return pg.pool.Devices() }

// Alive returns the number of live members.
func (pg *PoolGEMM) Alive() int { return pg.pool.Alive() }

// Kill quarantines the member with the device ID: in-flight launches on
// it fail, its queued tiles migrate to the survivors, and later calls
// exclude it until Revive. It reports whether any member matched.
func (pg *PoolGEMM) Kill(deviceID string) bool { return pg.pool.Kill(deviceID) }

// Revive lifts a Kill: the member is probed immediately and re-admitted
// on probation when the probe GEMM verifies bit-exact against the
// pure-Go reference. It reports whether the member is schedulable
// again.
func (pg *PoolGEMM) Revive(deviceID string) bool { return pg.pool.Revive(deviceID) }

// Health returns every member's health snapshot, in pool order.
func (pg *PoolGEMM) Health() []PoolMemberHealth { return pg.pool.Health() }

// Stats returns a snapshot of every member's cumulative statistics, in
// pool order.
func (pg *PoolGEMM) Stats() []PoolDeviceStats { return pg.pool.Stats() }

// Estimate models a pool execution of an m×n×k problem without running
// anything: the partition Run would use, priced by the performance
// model, with the aggregate speedup over the best single member.
func (pg *PoolGEMM) Estimate(prec Precision, m, n, k int) (*PoolEstimate, error) {
	return pg.pool.Estimate(prec, m, n, k)
}

// SetWorkers bounds per-launch work-group parallelism on every member
// (0 = GOMAXPROCS, 1 = serial).
func (pg *PoolGEMM) SetWorkers(n int) { pg.pool.SetWorkers(n) }

// Close releases every member's cached device state. The pool remains
// usable; the next call rebuilds plans on demand.
func (pg *PoolGEMM) Close() { pg.pool.Close() }
