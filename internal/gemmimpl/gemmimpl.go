// Package gemmimpl implements the paper's full GEMM routines (§IV-B):
// all four multiplication types NN/NT/TN/TT on top of the single
// C ← α·Aᵀ·B + β·C kernel. Matrix data are first copied into extra
// buffers — transposed as needed, changed into the kernel's block-major
// layout, and zero-padded when sizes are not multiples of the blocking
// factors — and then the kernel runs on the padded problem.
//
// The functional path executes on the clsim runtime and computes real
// results; the performance path adds the O(N²) copy cost to the
// kernel's modeled time, which is why the implementations are slow for
// small sizes and amortize the overhead as N grows, exactly as the
// paper discusses.
package gemmimpl

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"math"

	"oclgemm/internal/blas"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
	"oclgemm/internal/perfmodel"
)

// Impl is a GEMM implementation bound to a device and a tuned kernel
// parameter set (usually the tuner's winner). One Impl may be shared by
// any number of plans and request goroutines: the immutable identity
// (Dev, Params) is plain data, and every mutable option lives behind
// atomic or mutex access so SetWorkers/SetLaunchHook may be called
// concurrently with Runs (serve path).
type Impl struct {
	Dev    *device.Spec
	Params codegen.Params

	// workers bounds the work-group parallelism of kernel launches
	// issued by plans built from this implementation (0 = GOMAXPROCS,
	// 1 = serial); see clsim.Queue.Workers. Atomic: read at every Run,
	// written by SetWorkers at any time.
	workers atomic.Int64

	// mu guards the reference-typed options below, which are copied
	// into a plan at build time.
	mu         sync.Mutex
	launchHook func(kernelName string) error
	obs        *obs.Registry
	trace      *obs.Tracer
}

// New validates the kernel parameters against the device.
func New(d *device.Spec, p codegen.Params) (*Impl, error) {
	if err := p.CheckDevice(d); err != nil {
		return nil, err
	}
	return &Impl{Dev: d, Params: p}, nil
}

// SetWorkers bounds the work-group parallelism of kernel launches
// issued by plans built from this implementation (0 = GOMAXPROCS,
// 1 = serial). Safe to call concurrently with Runs: in-flight calls
// finish with the old setting, the next call on every plan picks up
// the new one. Results are identical for every setting.
func (im *Impl) SetWorkers(n int) { im.workers.Store(int64(n)) }

// Workers returns the current work-group parallelism bound.
func (im *Impl) Workers() int { return int(im.workers.Load()) }

// SetLaunchHook installs the hook consulted before every kernel launch
// of plans built after the call (fault injection; see
// clsim.Queue.LaunchHook). Safe to call concurrently with Runs.
func (im *Impl) SetLaunchHook(hook func(kernelName string) error) {
	im.mu.Lock()
	im.launchHook = hook
	im.mu.Unlock()
}

// SetObservability attaches a metrics registry and/or span tracer
// (either may be nil) to plans built after the call: per-phase timing
// histograms, pack-reuse and plan-cache counters, and the clsim
// launch/buffer accounting. Safe to call concurrently with Runs, but
// plans already built keep the instruments they were built with.
func (im *Impl) SetObservability(r *obs.Registry, t *obs.Tracer) {
	im.mu.Lock()
	im.obs = r
	im.trace = t
	im.mu.Unlock()
}

// Obs returns the implementation's metrics registry (nil when
// observability is off; every obs instrument is nil-safe).
func (im *Impl) Obs() *obs.Registry {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.obs
}

// Trace returns the implementation's span tracer (may be nil).
func (im *Impl) Trace() *obs.Tracer {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.trace
}

// launchHookRef returns the current launch hook under the lock.
func (im *Impl) launchHookRef() func(string) error {
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.launchHook
}

// PaddedDims returns the kernel-ready padded shape for an m×n×k
// problem — the plan-cache key. Layers that group traffic by the plan
// it will execute on (the serve coalescer) key on this.
func (im *Impl) PaddedDims(m, n, k int) (mp, np, kp int) {
	mp = matrix.PadDim(m, im.Params.Mwg)
	np = matrix.PadDim(n, im.Params.Nwg)
	kp = matrix.PadDim(k, im.Params.Kwg)
	if kp < im.Params.MinK() {
		kp = im.Params.MinK()
	}
	return
}

// Run computes C ← alpha·op(A)·op(B) + beta·C functionally on the
// simulated device. A, B, C may be stored in either order (the paper's
// §IV-B evaluation uses column-major); op(A) must be m×k, op(B) k×n
// and C m×n.
//
// Run is the one-shot (cold) path: it builds a transient Plan, executes
// it once and releases it. Serving paths with repeated calls should
// hold a Plan, PlanCache or Engine instead, which amortize the setup.
func Run[T matrix.Scalar](im *Impl, ta, tb blas.Transpose, alpha T, a, b *matrix.Matrix[T], beta T, c *matrix.Matrix[T]) error {
	m, n, k, err := Dims(ta, tb, a, b, c)
	if err != nil {
		return err
	}
	plan, err := NewPlan[T](im, m, n, k)
	if err != nil {
		return err
	}
	defer plan.Close()
	return plan.RunCtx(context.Background(), ta, tb, alpha, a, b, beta, c)
}

func view[T matrix.Scalar](b *clsim.Buffer) []T {
	var zero T
	switch any(zero).(type) {
	case float64:
		return any(b.Float64()).([]T)
	default:
		return any(b.Float32()).([]T)
	}
}

// writeRows uploads rows of sc elements, ld apart in host, densely into
// b (row r lands at element r·sc).
func writeRows[T matrix.Scalar](q *clsim.Queue, b *clsim.Buffer, host []T, rows, sc, ld int) error {
	if ld == sc {
		return writeBuf(q, b, 0, host[:rows*sc])
	}
	for r := 0; r < rows; r++ {
		if err := writeBuf(q, b, r*sc, host[r*ld:r*ld+sc]); err != nil {
			return err
		}
	}
	return nil
}

func writeBuf[T matrix.Scalar](q *clsim.Queue, b *clsim.Buffer, offset int, host []T) error {
	switch h := any(host).(type) {
	case []float64:
		return q.WriteFloat64(b, offset, h)
	case []float32:
		return q.WriteFloat32(b, offset, h)
	}
	return fmt.Errorf("gemmimpl: unsupported element type %T", host)
}

func readBuf[T matrix.Scalar](q *clsim.Queue, b *clsim.Buffer, host []T) error {
	switch h := any(host).(type) {
	case []float64:
		return q.ReadFloat64(b, 0, h)
	case []float32:
		return q.ReadFloat32(b, 0, h)
	}
	return fmt.Errorf("gemmimpl: unsupported element type %T", host)
}

// Breakdown is the modeled cost of one full GEMM call.
type Breakdown struct {
	Kernel perfmodel.Breakdown
	// CopySeconds is the modeled time of the layout-change copies of A
	// and B (and the C pad copy when padding is needed).
	CopySeconds float64
	// TotalSeconds includes kernel and copies.
	TotalSeconds float64
}

// Time models the execution time of C ← α·op(A)·op(B) + β·C including
// the copy overhead (perfmodel.RoutineTime with this implementation's
// device and parameters).
func (im *Impl) Time(m, n, k int) (Breakdown, error) {
	rb, err := perfmodel.RoutineTime(im.Dev, &im.Params, m, n, k)
	if err != nil {
		return Breakdown{}, err
	}
	return Breakdown{Kernel: rb.Kernel, CopySeconds: rb.CopySeconds, TotalSeconds: rb.TotalSeconds}, nil
}

// GFlops returns the modeled performance of the full routine for the
// nominal problem size. A degenerate model output (zero, negative,
// NaN or infinite time) is an error rather than an Inf/NaN throughput
// that would silently corrupt downstream scheduling comparisons.
func (im *Impl) GFlops(m, n, k int) (float64, error) {
	bd, err := im.Time(m, n, k)
	if err != nil {
		return 0, err
	}
	if !(bd.TotalSeconds > 0) || math.IsInf(bd.TotalSeconds, 1) {
		return 0, fmt.Errorf("gemmimpl: model produced unusable routine time %v for %dx%dx%d on %s",
			bd.TotalSeconds, m, n, k, im.Dev.ID)
	}
	return blas.FlopCount(m, n, k) / bd.TotalSeconds / 1e9, nil
}
