// Package clsim is a pure-Go simulation of the OpenCL host and device
// model that the paper's auto-tuning system runs on: platforms, devices,
// contexts, command queues, buffer objects, and two-dimensional NDRange
// kernel execution with work-groups, work-items, local memory and
// barriers.
//
// The runtime is functional, not cycle-accurate: kernels compute real
// results with exact OpenCL barrier semantics. Timing estimates come
// from the separate perfmodel package; the command queue records
// execution statistics (launches, bytes moved, barrier counts) that
// tests and the tuner consume.
package clsim

import (
	"fmt"
	"sync"

	"oclgemm/internal/device"
	"oclgemm/internal/obs"
)

// Platform groups the simulated devices, mirroring clGetPlatformIDs.
type Platform struct {
	Name    string
	Vendor  string
	Version string
	Devices []*Device
}

// DefaultPlatform returns a platform exposing every device in the
// Table I catalog.
func DefaultPlatform() *Platform {
	p := &Platform{
		Name:    "oclgemm simulated platform",
		Vendor:  "oclgemm",
		Version: "OpenCL 1.2 (simulated)",
	}
	for _, spec := range device.All() {
		p.Devices = append(p.Devices, &Device{Spec: spec})
	}
	return p
}

// Device is an OpenCL device backed by a catalog spec.
type Device struct {
	Spec *device.Spec
}

// Name returns the device display name.
func (d *Device) Name() string { return d.Spec.String() }

// Context owns buffers for a device, mirroring clCreateContext.
type Context struct {
	Device *Device

	mu        sync.Mutex
	allocated int64
	buffers   int
	created   int64
	released  int64

	o ctxObs
}

// ctxObs holds the context's resolved metric handles. Every handle is
// nil-safe, so an unobserved context (the default) pays only a nil
// check per event.
type ctxObs struct {
	bufCreated, bufReleased  *obs.Counter
	bufLive, bufLiveBytes    *obs.Gauge
	launches, groups, items  *obs.Counter
	barriers, bytesW, bytesR *obs.Counter
}

// SetObserver folds the context's buffer accounting and the execution
// statistics of its queues into the registry: counters
// clsim.buffer.created/released, clsim.kernel.launches,
// clsim.workgroups.run, clsim.workitems.run, clsim.barriers.hit,
// clsim.bytes.written/read and gauges clsim.buffer.live/live_bytes.
// Call it before the context is used; a nil registry detaches.
func (c *Context) SetObserver(r *obs.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r == nil {
		c.o = ctxObs{}
		return
	}
	c.o = ctxObs{
		bufCreated:   r.Counter("clsim.buffer.created"),
		bufReleased:  r.Counter("clsim.buffer.released"),
		bufLive:      r.Gauge("clsim.buffer.live"),
		bufLiveBytes: r.Gauge("clsim.buffer.live_bytes"),
		launches:     r.Counter("clsim.kernel.launches"),
		groups:       r.Counter("clsim.workgroups.run"),
		items:        r.Counter("clsim.workitems.run"),
		barriers:     r.Counter("clsim.barriers.hit"),
		bytesW:       r.Counter("clsim.bytes.written"),
		bytesR:       r.Counter("clsim.bytes.read"),
	}
}

// NewContext creates a context on the device.
func NewContext(d *Device) *Context {
	if d == nil {
		panic("clsim: nil device")
	}
	return &Context{Device: d}
}

// AllocatedBytes returns the total bytes currently held by live buffers.
func (c *Context) AllocatedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.allocated
}

// LiveBuffers returns the number of unreleased buffers.
func (c *Context) LiveBuffers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buffers
}

// BufferStats is the context's lifetime buffer accounting: leak tests
// assert Created == Released (equivalently Live == 0) once every owner
// has cleaned up, including error paths.
type BufferStats struct {
	// Created counts every successful CreateBuffer.
	Created int64
	// Released counts every first Release of a buffer.
	Released int64
	// Live is the number of unreleased buffers (Created - Released).
	Live int
	// LiveBytes is the total size of unreleased buffers.
	LiveBytes int64
}

// BufferStats returns a snapshot of the context's buffer accounting.
func (c *Context) BufferStats() BufferStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return BufferStats{
		Created:   c.created,
		Released:  c.released,
		Live:      c.buffers,
		LiveBytes: c.allocated,
	}
}

// QueueStats aggregates what a command queue has executed.
type QueueStats struct {
	KernelLaunches int
	WorkGroupsRun  int64
	WorkItemsRun   int64
	BarriersHit    int64
	BytesWritten   int64 // host -> device
	BytesRead      int64 // device -> host
}

// Queue is an in-order command queue, mirroring clCreateCommandQueue.
// All enqueue operations execute synchronously (the simulation has no
// asynchronous device).
type Queue struct {
	Ctx *Context

	// LaunchHook, if non-nil, is consulted before every kernel launch;
	// a non-nil error aborts the launch. Fault-injection harnesses use
	// it to simulate compile/launch failures without touching kernel
	// code. Set it before the first launch; it must be safe for
	// concurrent calls.
	LaunchHook func(kernelName string) error

	// Workers bounds the number of goroutines executing independent
	// work-groups of one kernel launch (0 = GOMAXPROCS). Workers == 1
	// runs the groups serially on the calling goroutine. Work-groups
	// write disjoint output regions, so results are identical for every
	// worker count.
	Workers int

	mu    sync.Mutex
	stats QueueStats

	// grFree recycles Group frames, with their Scratch state, across
	// launches so a warm launch performs no per-group allocations.
	grMu   sync.Mutex
	grFree []*Group
}

// NewQueue creates a command queue on the context.
func NewQueue(c *Context) *Queue {
	if c == nil {
		panic("clsim: nil context")
	}
	return &Queue{Ctx: c}
}

// Stats returns a snapshot of the queue's execution statistics.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

func (q *Queue) addLaunch(groups, items, barriers int64) {
	q.mu.Lock()
	q.stats.KernelLaunches++
	q.stats.WorkGroupsRun += groups
	q.stats.WorkItemsRun += items
	q.stats.BarriersHit += barriers
	q.mu.Unlock()
	o := &q.Ctx.o
	o.launches.Inc()
	o.groups.Add(groups)
	o.items.Add(items)
	o.barriers.Add(barriers)
}

// NDRange is a two-dimensional index space (the paper only considers 2-D
// NDRanges, which suit matrix data).
type NDRange struct {
	// Global is the total number of work-items per dimension.
	Global [2]int
	// Local is the work-group size per dimension.
	Local [2]int
}

// Validate checks the geometry against the device limits.
func (n NDRange) Validate(d *Device) error {
	for dim := 0; dim < 2; dim++ {
		if n.Global[dim] <= 0 || n.Local[dim] <= 0 {
			return fmt.Errorf("clsim: non-positive NDRange dimension %d", dim)
		}
		if n.Global[dim]%n.Local[dim] != 0 {
			return fmt.Errorf("clsim: global size %d not divisible by local size %d in dimension %d",
				n.Global[dim], n.Local[dim], dim)
		}
	}
	if wg := n.Local[0] * n.Local[1]; wg > d.Spec.MaxWGSize {
		return fmt.Errorf("clsim: work-group size %d exceeds device limit %d", wg, d.Spec.MaxWGSize)
	}
	return nil
}

// GroupSize returns work-items per group.
func (n NDRange) GroupSize() int { return n.Local[0] * n.Local[1] }

// NumGroups returns the group grid dimensions.
func (n NDRange) NumGroups() [2]int {
	return [2]int{n.Global[0] / n.Local[0], n.Global[1] / n.Local[1]}
}

// TotalGroups returns the number of work-groups in the NDRange.
func (n NDRange) TotalGroups() int {
	g := n.NumGroups()
	return g[0] * g[1]
}
