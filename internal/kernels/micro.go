// Micro-kernel support: panel geometry, the work-group state free list
// and the work-group counter.
//
// The paper's generated OpenCL sources bake the blocking into the
// kernel text; the native kernels do the same at NewGEMM/NewPack time.
// Panel geometry is precomputed into panelGeom offsets so panel loads
// are whole-row copy() calls, the inner product is a sequence of rank-1
// updates of a row-major work-group C tile over reslice-narrowed panel
// rows, and per-group state is recycled through a free list so a warm
// launch allocates nothing. One micro-kernel serves every parameter
// point: the stride modes of §III-B change which work-item owns a C
// element, not the order in which the element accumulates.
package kernels

import (
	"sync"

	"oclgemm/internal/clsim"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// panelGeom resolves flat offsets of one packed operand a whole row-run
// at a time. The enabling invariant is that the planner packs with
// blocking equal to the kernel's work-group tiling (A: Kwg×Mwg, B:
// Kwg×Nwg), so the cb columns of block-column blk in row r are
// contiguous under all three layouts.
type panelGeom struct {
	layout     matrix.Layout
	rows, cols int
	rb, cb     int
}

// rowStart returns the flat offset of element (r, blk*cb): the start of
// the contiguous cb-wide run of row r inside block-column blk.
func (pg *panelGeom) rowStart(r, blk int) int {
	switch pg.layout {
	case matrix.LayoutCBL:
		return blk*(pg.rows*pg.cb) + r*pg.cb
	case matrix.LayoutRBL:
		return (r/pg.rb)*(pg.rb*pg.cols) + blk*(pg.rb*pg.cb) + (r%pg.rb)*pg.cb
	default:
		return r*pg.cols + blk*pg.cb
	}
}

// statePool recycles per-work-group state across groups and launches.
// It is a mutex-guarded stack rather than a sync.Pool: the GC may drop
// sync.Pool items at any point, which would break the warm-launch
// zero-allocation guarantee the execution engine tests enforce.
type statePool[T matrix.Scalar] struct {
	mu   sync.Mutex
	free []*state[T]
	// allocs counts states built fresh (free list empty); a warm launch
	// must not move it — the batched zero-alloc tests assert on it.
	allocs int64
}

// StateAllocs returns how many work-group states the kernel has
// allocated across its lifetime. Warm launches recycle states through
// the free list, so the count stays flat once the kernel has run at
// its steady-state parallelism — the observable half of the
// zero-allocation warm-path guarantee.
func (g *GEMM[T]) StateAllocs() int64 {
	g.pool.mu.Lock()
	defer g.pool.mu.Unlock()
	return g.pool.allocs
}

// getState returns a ready work-group state: local-memory capacity is
// charged against the device budget (so ErrLocalMemExceeded fires as on
// a real device), the accumulator is zeroed, and backing slabs are
// reused when the pool has them.
func (g *GEMM[T]) getState(run *clsim.Group) *state[T] {
	p := &g.P
	if p.SharedA {
		run.TakeLocal(g.esize * p.Kwg * p.Mwg)
	}
	if p.SharedB {
		run.TakeLocal(g.esize * p.Kwg * p.Nwg)
	}
	g.pool.mu.Lock()
	var s *state[T]
	if n := len(g.pool.free); n > 0 {
		s = g.pool.free[n-1]
		g.pool.free = g.pool.free[:n-1]
	} else {
		g.pool.allocs++
	}
	g.pool.mu.Unlock()
	if s == nil {
		s = &state[T]{acc: make([]T, p.Mwg*p.Nwg)}
		if p.SharedA {
			s.alm = make([]T, p.Kwg*p.Mwg)
		}
		if p.SharedB {
			s.blm = make([]T, p.Kwg*p.Nwg)
		}
		return s
	}
	// The local panels need no clearing: every schedule stages a panel
	// row range before any compute phase reads it.
	clear(s.acc)
	return s
}

func (g *GEMM[T]) putState(s *state[T]) {
	g.pool.mu.Lock()
	g.pool.free = append(g.pool.free, s)
	g.pool.mu.Unlock()
}

// groupCounter resolves a kernel's work-group counter
// ("kernels.<kernel>.groups{micro=unit}"); nil (a no-op, like every
// nil obs instrument) when the registry is nil.
func groupCounter(r *obs.Registry, kernel string) *obs.Counter {
	if r == nil {
		return nil
	}
	return r.Counter(obs.Label("kernels."+kernel+".groups", "micro", "unit"))
}

// elemBytes returns the element size of T for local-memory accounting.
func elemBytes[T matrix.Scalar]() int {
	var zero T
	if _, ok := any(zero).(float64); ok {
		return 8
	}
	return 4
}
