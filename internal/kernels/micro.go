// Micro-kernel support: panel geometry, the per-worker work-group state
// and the work-group counter.
//
// The paper's generated OpenCL sources bake the blocking into the
// kernel text; the native kernels do the same at NewGEMM/NewPack time.
// Panel geometry is precomputed into panelGeom offsets so panel loads
// are whole-row copy() calls, the inner product is a sequence of rank-1
// updates of a row-major work-group C tile over reslice-narrowed panel
// rows, and per-group state is kept in the worker's clsim.Group frame so
// a warm launch allocates nothing. One micro-kernel serves every parameter
// point: the stride modes of §III-B change which work-item owns a C
// element, not the order in which the element accumulates.
package kernels

import (
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

// getState returns a ready work-group state: local-memory capacity is
// charged against the device budget (so ErrLocalMemExceeded fires as on
// a real device) and the accumulator is zeroed. The state lives in the
// worker's clsim.Group scratch slot and is reused by every later group
// the worker runs for this kernel, across launches on the same queue;
// a slot holding another kernel's state is replaced.
func (g *GEMM[T]) getState(run *clsim.Group) *state[T] {
	p := &g.P
	if p.SharedA {
		run.TakeLocal(g.esize * p.Kwg * p.Mwg)
	}
	if p.SharedB {
		run.TakeLocal(g.esize * p.Kwg * p.Nwg)
	}
	slot := run.Scratch()
	if s, ok := (*slot).(*state[T]); ok && s.k == g {
		// The local panels need no clearing: every schedule stages a
		// panel row range before any compute phase reads it.
		clear(s.acc)
		return s
	}
	s := &state[T]{k: g, acc: make([]T, p.Mwg*p.Nwg)}
	if p.SharedA {
		s.alm = make([]T, p.Kwg*p.Mwg)
	}
	if p.SharedB {
		s.blm = make([]T, p.Kwg*p.Nwg)
	}
	*slot = s
	return s
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
