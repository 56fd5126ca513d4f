package clsim

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrLocalMemExceeded reports a kernel whose local-memory allocations do
// not fit the device. The tuner treats such kernels like the paper
// treats kernels that fail compilation: discarded and not counted.
var ErrLocalMemExceeded = errors.New("clsim: local memory allocation exceeds device capacity")

// Group is the execution state of one work-group: identity, local
// memory accounting and the barrier count.
type Group struct {
	id  [2]int
	nd  NDRange
	dev *Device

	localUsed int
	barriers  int64
	scratch   any
}

// Scratch returns the worker frame's state slot, starting nil on a new
// frame: a kernel keeps per-worker state there (register storage,
// local slabs) instead of rebuilding it for every group. The slot
// lasts across the groups and launches the frame runs on its queue,
// and any kernel launched on the queue may find it, so a kernel checks
// that the state is its own before reusing it.
func (g *Group) Scratch() *any { return &g.scratch }

// reset readies g to run group id, keeping the worker's scratch.
func (g *Group) reset(id [2]int, nd NDRange, dev *Device) {
	*g = Group{id: id, nd: nd, dev: dev, scratch: g.scratch}
}

// ID returns the group index in dimension d.
func (g *Group) ID(d int) int { return g.id[d] }

// Size returns work-items per group.
func (g *Group) Size() int { return g.nd.GroupSize() }

// LocalSize returns the group size in dimension d.
func (g *Group) LocalSize(d int) int { return g.nd.Local[d] }

// NumGroups returns the group-grid extent in dimension d.
func (g *Group) NumGroups(d int) int { return g.nd.NumGroups()[d] }

// GlobalID returns the global id in dimension d of the item with local
// id l in that dimension.
func (g *Group) GlobalID(d, l int) int { return g.id[d]*g.nd.Local[d] + l }

// TakeLocal charges bytes of local memory against the device capacity.
// Kernels keep the backing storage themselves (in Scratch) and call it
// for every group, so each group is held to the device's capacity. It
// panics with ErrLocalMemExceeded when the capacity is exceeded; the
// executor converts the panic into an error result.
func (g *Group) TakeLocal(bytes int) {
	g.localUsed += bytes
	if g.localUsed > g.dev.Spec.LocalMemBytes() {
		panic(ErrLocalMemExceeded)
	}
}

// PhaseBarrier records one barrier for a kernel that runs a whole
// barrier phase of the group as bulk operations (panel-row copies,
// rank-1 tile updates), so its barrier statistics follow the
// phase-by-phase schedule of the generated source — the native GEMM
// tests pin them to goldens.
func (g *Group) PhaseBarrier() { g.barriers++ }

// Arrive records n work-item arrivals at a barrier: a kernel that runs
// its items one by one up to each barrier reports every item, as a
// device counts them.
func (g *Group) Arrive(n int) { g.barriers += int64(n) }

// GroupKernel is kernel code in lockstep form: RunGroup runs every
// work-item of one group, phase by phase between barriers, on the
// calling goroutine.
type GroupKernel interface {
	Name() string
	RunGroup(g *Group)
}

// workerCount resolves the queue's Workers option: 0 (or negative)
// means one worker per available CPU.
func (q *Queue) workerCount() int {
	if q.Workers > 0 {
		return q.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run is RunLockstep; both names are kept for existing callers.
func (q *Queue) Run(k GroupKernel, nd NDRange) error { return q.RunLockstep(k, nd) }

// RunLockstep executes a GroupKernel over the NDRange, distributing
// independent groups over the queue's worker pool (bounded by the
// Workers option). Kernel panics become errors.
//
// The single-worker path is allocation-free in the steady state: each
// worker runs its groups on one Group frame, recycled through a
// queue-owned free list (a mutex-guarded stack, not sync.Pool, whose
// GC-droppable items would defeat the warm-launch zero-allocation
// guarantee), and the group loop runs without closures. The free list
// holds at most one frame per worker the queue has run at once; a
// frame keeps its Scratch state until the queue is dropped.
func (q *Queue) RunLockstep(k GroupKernel, nd NDRange) error {
	if err := nd.Validate(q.Ctx.Device); err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name(), err)
	}
	// Name may format a string; only a hooked queue pays for it.
	if q.LaunchHook != nil {
		if err := q.LaunchHook(k.Name()); err != nil {
			return fmt.Errorf("kernel %s: launch rejected: %w", k.Name(), err)
		}
	}
	var barriers int64
	var err error
	if q.workerCount() == 1 {
		barriers, err = q.runLockstepSerial(k, nd)
	} else {
		barriers, err = q.runLockstepParallel(k, nd)
	}
	q.addLaunch(int64(nd.TotalGroups()), int64(nd.Global[0])*int64(nd.Global[1]), barriers)
	if err != nil {
		return fmt.Errorf("kernel %s: %w", k.Name(), err)
	}
	return nil
}

func (q *Queue) runLockstepSerial(k GroupKernel, nd NDRange) (int64, error) {
	groups := nd.NumGroups()
	var barriers int64
	var firstErr error
	g := q.getGroup()
	for gy := 0; gy < groups[1]; gy++ {
		for gx := 0; gx < groups[0]; gx++ {
			g.reset([2]int{gx, gy}, nd, q.Ctx.Device)
			err := runLockstepGroup(k, g)
			barriers += g.barriers
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	q.putGroup(g)
	return barriers, firstErr
}

// runLockstepParallel runs the groups over a pool of worker
// goroutines that take group indices in linear order. Work-groups of
// one launch are independent in the OpenCL execution model, so the
// schedule cannot change results. The first error wins.
func (q *Queue) runLockstepParallel(k GroupKernel, nd NDRange) (int64, error) {
	groups := nd.NumGroups()
	total := groups[0] * groups[1]
	var s struct {
		next     atomic.Int64 // next linear group index
		mu       sync.Mutex
		barriers int64
		err      error
	}
	var wg sync.WaitGroup
	for w := 0; w < min(q.workerCount(), total); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g := q.getGroup()
			for i := int(s.next.Add(1) - 1); i < total; i = int(s.next.Add(1) - 1) {
				g.reset([2]int{i % groups[0], i / groups[0]}, nd, q.Ctx.Device)
				err := runLockstepGroup(k, g)
				s.mu.Lock()
				s.barriers += g.barriers
				if s.err == nil {
					s.err = err
				}
				s.mu.Unlock()
			}
			q.putGroup(g)
		}()
	}
	wg.Wait()
	return s.barriers, s.err
}

// runLockstepGroup runs one group, converting kernel panics (local
// memory exhaustion, bounds faults) into errors.
func runLockstepGroup(k GroupKernel, g *Group) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = recoveredError(r)
		}
	}()
	k.RunGroup(g)
	return nil
}

func (q *Queue) getGroup() *Group {
	q.grMu.Lock()
	var g *Group
	if n := len(q.grFree); n > 0 {
		g = q.grFree[n-1]
		q.grFree = q.grFree[:n-1]
	}
	q.grMu.Unlock()
	if g == nil {
		g = &Group{}
	}
	return g
}

// putGroup returns a worker's Group frame, scratch included, so the
// next launch on the queue starts from the state it left.
func (q *Queue) putGroup(g *Group) {
	q.grMu.Lock()
	q.grFree = append(q.grFree, g)
	q.grMu.Unlock()
}

func recoveredError(r any) error {
	if err, ok := r.(error); ok {
		return err
	}
	return fmt.Errorf("clsim: kernel panic: %v", r)
}
