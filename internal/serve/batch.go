package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/obs"
)

// errDraining rejects submissions after the batcher began draining.
var errDraining = errors.New("serve: draining")

// Batching policy: the window lets concurrent same-shape requests find
// each other; a group that reaches maxBatchSize fires at once, which
// bounds how many members one executor runs back to back.
const (
	coalesceWindow = 500 * time.Microsecond
	maxBatchSize   = 16
)

// groupKey identifies the plan a request will execute on: the engine
// (one per precision) plus the padded problem shape (the plan-cache
// key). Requests with one groupKey coalesce into one batch on one warm
// plan.
type groupKey struct {
	eng        *gemmimpl.Engine
	mp, np, kp int
}

// batchResult is what a coalesced request hears back: its own error
// and how many requests shared its batch.
type batchResult struct {
	err  error
	size int
}

// pending is one request waiting in a coalescing group: run executes
// it (the whole strided batch it carries) under its own context.
type pending struct {
	ctx  context.Context
	done chan batchResult
	run  func(context.Context) error
}

// group is the open coalescing window for one key.
type group struct {
	reqs  []*pending
	timer *time.Timer
}

// batcher coalesces concurrent same-shape requests into batches
// executed back-to-back on the shared engine's warm plan for that
// shape. The first request of a shape opens a window; requests
// arriving within it join the batch; the window closing (or the batch
// filling) fires one executor that runs every member under its own
// deadline and hands each its result as soon as its run returns.
// Coalescing turns N concurrent small requests into N back-to-back
// runs on one warm plan — the steady-state serving shape
// CLTune/GEMMbench identify as where tuned-kernel reuse pays.
type batcher struct {
	// window and maxBatch are coalesceWindow and maxBatchSize; tests
	// lengthen them before serving.
	window   time.Duration
	maxBatch int

	mu     sync.Mutex
	closed bool
	groups map[groupKey]*group
	wg     sync.WaitGroup

	batches   *obs.Counter
	coalesced *obs.Counter // requests that shared a batch with >=1 other
	batchSize *obs.Histogram
}

func newBatcher(reg *obs.Registry) *batcher {
	return &batcher{
		window: coalesceWindow, maxBatch: maxBatchSize,
		groups:    make(map[groupKey]*group),
		batches:   reg.Counter("serve.batch.count"),
		coalesced: reg.Counter("serve.batch.coalesced"),
		batchSize: reg.Histogram("serve.batch.size", 1, 2, 4, 8, 16, 32, 64),
	}
}

// submit enqueues a request into its shape's coalescing group; its
// result arrives on p.done.
func (b *batcher) submit(key groupKey, p *pending) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return errDraining
	}
	g := b.groups[key]
	if g == nil {
		g = &group{}
		b.groups[key] = g
		g.timer = time.AfterFunc(b.window, func() { b.fire(key, g) })
	}
	g.reqs = append(g.reqs, p)
	if len(g.reqs) >= b.maxBatch {
		// Full batch: detach and execute now.
		delete(b.groups, key)
		g.timer.Stop()
		b.wg.Add(1)
		go b.exec(g.reqs)
	}
	return nil
}

// fire closes a window: detach the group (if still open) and execute.
func (b *batcher) fire(key groupKey, g *group) {
	b.mu.Lock()
	if b.groups[key] != g {
		// Already detached by a full batch or by drain.
		b.mu.Unlock()
		return
	}
	delete(b.groups, key)
	b.wg.Add(1)
	b.mu.Unlock()
	b.exec(g.reqs)
}

// exec runs one coalesced batch back-to-back, sending each member its
// result as soon as its own run returns.
func (b *batcher) exec(reqs []*pending) {
	defer b.wg.Done()
	b.batches.Inc()
	b.batchSize.Observe(float64(len(reqs)))
	if len(reqs) > 1 {
		b.coalesced.Add(int64(len(reqs)))
	}
	for _, p := range reqs {
		p.done <- batchResult{err: p.run(p.ctx), size: len(reqs)}
	}
}

// drain flushes every open window immediately and waits for all
// executors. Later submits fail with errDraining.
func (b *batcher) drain() {
	b.mu.Lock()
	b.closed = true
	for key, g := range b.groups {
		delete(b.groups, key)
		g.timer.Stop()
		b.wg.Add(1)
		go b.exec(g.reqs)
	}
	b.mu.Unlock()
	b.wg.Wait()
}
