// Package kernels provides executable Go implementations of the GEMM
// kernels the code generator produces: the BA, PL and DB schedules of
// §III-E, parameterized by the full codegen.Params space (blocking,
// work-group shape, stride modes, local-memory staging with reshaped
// cooperative loads, and block-major layouts).
//
// These kernels run on the clsim lockstep executor and compute real
// results; they are the functional counterpart of the performance
// model, and they cross-check the OpenCL C sources emitted by the
// generator (executed by the clc package) against the reference
// BLAS.
package kernels

import (
	"fmt"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// GEMM is one launchable C ← α·Aᵀ·B + β·C kernel instance. A is the
// K×M transposed operand in layout P.LayoutA with (Kwg, Mwg) blocking,
// B the K×N operand in layout P.LayoutB with (Kwg, Nwg) blocking, and
// C the M×N row-major output. M, N, K must be multiples of the
// blocking factors (the planner pads first).
type GEMM[T matrix.Scalar] struct {
	P           codegen.Params
	M, N, K     int
	Alpha, Beta T
	A, B, C     []T

	geoA, geoB panelGeom
	esize      int
	groups     *obs.Counter
}

// NewGEMM validates shapes and builds the kernel.
func NewGEMM[T matrix.Scalar](p codegen.Params, m, n, k int, alpha T, a []T, b []T, beta T, c []T) (*GEMM[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m%p.Mwg != 0 || n%p.Nwg != 0 || k%p.Kwg != 0 {
		return nil, fmt.Errorf("kernels: %dx%dx%d not padded to blocking %dx%dx%d", m, n, k, p.Mwg, p.Nwg, p.Kwg)
	}
	if k < p.MinK() {
		return nil, fmt.Errorf("kernels: K=%d below algorithm minimum %d", k, p.MinK())
	}
	if len(a) < k*m || len(b) < k*n || len(c) < m*n {
		return nil, fmt.Errorf("kernels: buffer sizes %d/%d/%d too small for %dx%dx%d", len(a), len(b), len(c), m, n, k)
	}
	return &GEMM[T]{
		P: p, M: m, N: n, K: k,
		Alpha: alpha, Beta: beta,
		A: a, B: b, C: c,
		geoA:  panelGeom{layout: p.LayoutA, rows: k, cols: m, rb: p.Kwg, cb: p.Mwg},
		geoB:  panelGeom{layout: p.LayoutB, rows: k, cols: n, rb: p.Kwg, cb: p.Nwg},
		esize: elemBytes[T](),
	}, nil
}

// SetObserver resolves the kernel's work-group counter from the
// registry (kernels.gemm.groups{micro=unit}, counting every executed
// work-group). A nil registry detaches.
func (g *GEMM[T]) SetObserver(r *obs.Registry) { g.groups = groupCounter(r, "gemm") }

// Name implements clsim.GroupKernel.
func (g *GEMM[T]) Name() string { return g.P.Name() }

// SetScalars updates α and β for the next launch, letting a prebuilt
// kernel instance be relaunched with different scalars (the execution
// engine reuses one instance across repeated calls).
func (g *GEMM[T]) SetScalars(alpha, beta T) {
	g.Alpha, g.Beta = alpha, beta
}

// NDRange returns the launch geometry: one work-item per (MdimC, NdimC)
// cell of each (M/Mwg)×(N/Nwg) work-group grid.
func (g *GEMM[T]) NDRange() clsim.NDRange {
	return clsim.NDRange{
		Global: [2]int{g.M / g.P.Mwg * g.P.MdimC, g.N / g.P.Nwg * g.P.NdimC},
		Local:  [2]int{g.P.MdimC, g.P.NdimC},
	}
}

// state is the per-work-group execution state shared by the three
// schedules: the local memory panels and the work-group's C tile
// accumulator. It is kept in the worker's Group scratch slot
// (getState, micro.go), so a warm launch allocates nothing.
type state[T matrix.Scalar] struct {
	k        *GEMM[T] // owner: a slot reached by another kernel is rebuilt
	alm, blm []T      // local panels (Kwg×Mwg / Kwg×Nwg), nil if not shared
	acc      []T      // row-major Mwg×Nwg accumulator of the group's C tile
}

// loadPanelA stages rows [pwg+k0, pwg+k0+kLen) of the A panel into alm
// (local layout: row-major Kwg×Mwg with row origin k0). The cooperative
// (MdimA × KdimA) scatter of §III-C writes exactly the Mwg-wide run of
// each panel row, and the pack blocking makes that run contiguous in
// every layout, so each row is one copy. One PhaseBarrier stands for the
// barrier that ends the load phase.
func (g *GEMM[T]) loadPanelA(s *state[T], run *clsim.Group, gx, pwg, k0, kLen int) {
	mwg := g.P.Mwg
	for k := k0; k < k0+kLen; k++ {
		src := g.geoA.rowStart(pwg+k, gx)
		copy(s.alm[k*mwg:(k+1)*mwg], g.A[src:src+mwg])
	}
	run.PhaseBarrier()
}

// loadPanelB is the B counterpart of loadPanelA (NdimB × KdimB grid).
func (g *GEMM[T]) loadPanelB(s *state[T], run *clsim.Group, gy, pwg, k0, kLen int) {
	nwg := g.P.Nwg
	for k := k0; k < k0+kLen; k++ {
		src := g.geoB.rowStart(pwg+k, gy)
		copy(s.blm[k*nwg:(k+1)*nwg], g.B[src:src+nwg])
	}
	run.PhaseBarrier()
}

// panelRows returns the Mwg-wide A run and the Nwg-wide B run of local
// panel row kk: from local memory when staged, straight out of the
// packed global operand otherwise.
func (g *GEMM[T]) panelRows(s *state[T], gx, gy, pwg, kk int) (arow, brow []T) {
	p := &g.P
	if p.SharedA {
		arow = s.alm[kk*p.Mwg : (kk+1)*p.Mwg]
	} else {
		base := g.geoA.rowStart(pwg+kk, gx)
		arow = g.A[base : base+p.Mwg]
	}
	if p.SharedB {
		brow = s.blm[kk*p.Nwg : (kk+1)*p.Nwg]
	} else {
		base := g.geoB.rowStart(pwg+kk, gy)
		brow = g.B[base : base+p.Nwg]
	}
	return arow, brow
}

// compute performs the multiply-accumulate for local k range
// [k0, k0+kLen) of the panel at pwg as a sequence of rank-1 updates of
// the group's C tile: for each panel row kk and each tile row r with
// a = arow[r] ≠ 0, acc[r, :] += a·brow.
//
// The loop is blocked over four panel rows and two tile rows, so each
// B element loaded serves two accumulator rows and each accumulator
// element is loaded and stored once per four products. Every element
// still takes its products one rounded add at a time in kk-ascending
// order. A zero among a block's a values sends that tile row to the
// one-product-at-a-time path, so the a == 0 skip stays exact.
//
// The work-item mapping (unit or StrideM/StrideN, Fig. 2) only decides
// which work-item owns an element, never the order of its products, so
// this one loop serves every stride mode bit-identically. One
// PhaseBarrier stands for the barrier that ends the compute phase.
func (g *GEMM[T]) compute(s *state[T], run *clsim.Group, gx, gy, pwg, k0, kLen int) {
	nwg := g.P.Nwg
	kk, end := k0, k0+kLen
	for ; kk+4 <= end; kk += 4 {
		a0, b0 := g.panelRows(s, gx, gy, pwg, kk)
		a1, b1 := g.panelRows(s, gx, gy, pwg, kk+1)
		a2, b2 := g.panelRows(s, gx, gy, pwg, kk+2)
		a3, b3 := g.panelRows(s, gx, gy, pwg, kk+3)
		r := 0
		for ; r+2 <= len(a0); r += 2 {
			x0, x1, x2, x3 := a0[r], a1[r], a2[r], a3[r]
			y0, y1, y2, y3 := a0[r+1], a1[r+1], a2[r+1], a3[r+1]
			acc := s.acc[r*nwg : (r+1)*nwg]
			acd := s.acc[(r+1)*nwg : (r+2)*nwg]
			if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 || y0 == 0 || y1 == 0 || y2 == 0 || y3 == 0 {
				rank4(acc, x0, x1, x2, x3, b0, b1, b2, b3)
				rank4(acd, y0, y1, y2, y3, b0, b1, b2, b3)
				continue
			}
			acd = acd[:len(acc)]
			b0, b1, b2, b3 := b0[:len(acc)], b1[:len(acc)], b2[:len(acc)], b3[:len(acc)]
			for j, v := range acc {
				p0, p1, p2, p3 := b0[j], b1[j], b2[j], b3[j]
				acc[j] = v + T(x0*p0) + T(x1*p1) + T(x2*p2) + T(x3*p3)
				acd[j] = acd[j] + T(y0*p0) + T(y1*p1) + T(y2*p2) + T(y3*p3)
			}
		}
		if r < len(a0) {
			rank4(s.acc[r*nwg:(r+1)*nwg], a0[r], a1[r], a2[r], a3[r], b0, b1, b2, b3)
		}
	}
	for ; kk < end; kk++ {
		arow, brow := g.panelRows(s, gx, gy, pwg, kk)
		for r, a := range arow {
			axpy(s.acc[r*nwg:(r+1)*nwg], a, brow)
		}
	}
	run.PhaseBarrier()
}

// rank4 adds x0·b0 + x1·b1 + x2·b2 + x3·b3 to one accumulator row, in
// that order, skipping every zero x.
func rank4[T matrix.Scalar](acc []T, x0, x1, x2, x3 T, b0, b1, b2, b3 []T) {
	if x0 == 0 || x1 == 0 || x2 == 0 || x3 == 0 {
		axpy(acc, x0, b0)
		axpy(acc, x1, b1)
		axpy(acc, x2, b2)
		axpy(acc, x3, b3)
		return
	}
	b0, b1, b2, b3 = b0[:len(acc)], b1[:len(acc)], b2[:len(acc)], b3[:len(acc)]
	for j, v := range acc {
		acc[j] = v + T(x0*b0[j]) + T(x1*b1[j]) + T(x2*b2[j]) + T(x3*b3[j])
	}
}

// axpy adds a·b to one accumulator row, skipping a == 0.
func axpy[T matrix.Scalar](acc []T, a T, b []T) {
	if a == 0 {
		return
	}
	b = b[:len(acc)]
	for j := range acc {
		acc[j] += T(a * b[j])
	}
}

// merge writes α·acc + β·C back to global C (line 13 of Fig. 4), one
// contiguous Nwg-wide run of row-major C per tile row. Per BLAS
// semantics C is not read when β == 0, so NaN/Inf-poisoned or
// uninitialized output buffers cannot corrupt the result (0·NaN = NaN
// would otherwise leak through).
func (g *GEMM[T]) merge(s *state[T], run *clsim.Group, gx, gy int) {
	p := &g.P
	alpha, beta := g.Alpha, g.Beta
	for r := 0; r < p.Mwg; r++ {
		acc := s.acc[r*p.Nwg : (r+1)*p.Nwg]
		off := (gx*p.Mwg+r)*g.N + gy*p.Nwg
		crow := g.C[off : off+len(acc)]
		if beta == 0 {
			for j, v := range acc {
				crow[j] = alpha * v
			}
		} else {
			for j, v := range acc {
				crow[j] = T(alpha*v) + T(beta*crow[j])
			}
		}
	}
	run.PhaseBarrier()
}

// RunGroup implements clsim.GroupKernel, dispatching on the schedule.
// Work-group state comes from the worker's Group frame, so warm
// launches allocate nothing. The executor runs every group of a launch,
// so the first group counts the whole grid: one atomic add per launch
// instead of one per group.
func (g *GEMM[T]) RunGroup(run *clsim.Group) {
	if run.ID(0) == 0 && run.ID(1) == 0 {
		g.groups.Add(int64(run.NumGroups(0) * run.NumGroups(1)))
	}
	s := g.getState(run)
	switch g.P.Algorithm {
	case codegen.PL:
		g.runPL(s, run)
	case codegen.DB:
		g.runDB(s, run)
	default:
		g.runBA(s, run)
	}
}

// runBA is the basic algorithm (Fig. 4): stage panel, barrier, compute,
// barrier, next panel.
func (g *GEMM[T]) runBA(s *state[T], run *clsim.Group) {
	p := &g.P
	gx, gy := run.ID(0), run.ID(1)
	for pwg := 0; pwg < g.K; pwg += p.Kwg {
		if p.SharedA {
			g.loadPanelA(s, run, gx, pwg, 0, p.Kwg)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, pwg, 0, p.Kwg)
		}
		// Each phase ends with its barrier (Fig. 4 lines 5 and 11).
		g.compute(s, run, gx, gy, pwg, 0, p.Kwg)
	}
	g.merge(s, run, gx, gy)
}

// runPL is the software-pipelined algorithm (Fig. 5): the panel for
// iteration i+1 is fetched into private registers while iteration i
// computes from local memory, then stored to local memory behind a
// barrier. The private staging has no observable effect until the
// store lands it in local memory, so the next panel is loaded directly
// at the store point and the fetch phase keeps only its barrier: the
// barrier schedule (prologue, pipelined body, epilogue) matches the
// generated source. Operands not staged through local memory are read
// directly, as in BA.
func (g *GEMM[T]) runPL(s *state[T], run *clsim.Group) {
	p := &g.P
	gx, gy := run.ID(0), run.ID(1)
	// Prologue (Fig. 5 lines 2-4): first panel into local memory.
	if p.SharedA {
		g.loadPanelA(s, run, gx, 0, 0, p.Kwg)
	}
	if p.SharedB {
		g.loadPanelB(s, run, gy, 0, 0, p.Kwg)
	}
	pwg := 0
	for ; pwg <= g.K-2*p.Kwg; pwg += p.Kwg {
		next := pwg + p.Kwg
		// Lines 6-7: fetch the next panel into private staging.
		if p.SharedA {
			run.PhaseBarrier()
		}
		if p.SharedB {
			run.PhaseBarrier()
		}
		// Lines 9-13: compute the current panel from local memory.
		g.compute(s, run, gx, gy, pwg, 0, p.Kwg)
		// Lines 14-17: store the staging into local memory.
		if p.SharedA {
			g.loadPanelA(s, run, gx, next, 0, p.Kwg)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, next, 0, p.Kwg)
		}
	}
	// Epilogue (lines 19-23): last panel.
	g.compute(s, run, gx, gy, pwg, 0, p.Kwg)
	g.merge(s, run, gx, gy)
}

// runDB is the double-buffered algorithm (Fig. 6): the Kwg panel is
// split into two half-panels staged in alternating local-memory
// buffers, so loads of one half overlap compute on the other. The two
// halves live in the same local allocation (first and second Kwg/2
// rows), matching the total local-memory budget of BA.
func (g *GEMM[T]) runDB(s *state[T], run *clsim.Group) {
	p := &g.P
	gx, gy := run.ID(0), run.ID(1)
	half := p.Kwg / 2

	// Lines 2-3: first half of the first panel into buffer 0.
	if p.SharedA {
		g.loadPanelA(s, run, gx, 0, 0, half)
	}
	if p.SharedB {
		g.loadPanelB(s, run, gy, 0, 0, half)
	}

	pwg := 0
	for ; pwg <= g.K-2*p.Kwg; pwg += p.Kwg {
		// Lines 6-7: second half into buffer 1.
		if p.SharedA {
			g.loadPanelA(s, run, gx, pwg, half, half)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, pwg, half, half)
		}
		// Lines 8-12: compute on buffer 0.
		g.compute(s, run, gx, gy, pwg, 0, half)
		// Lines 14-15: next panel's first half into buffer 0.
		if p.SharedA {
			g.loadPanelA(s, run, gx, pwg+p.Kwg, 0, half)
		}
		if p.SharedB {
			g.loadPanelB(s, run, gy, pwg+p.Kwg, 0, half)
		}
		// Lines 16-20: compute on buffer 1 (the same panel's upper k
		// range); direct operands read global memory at the true k.
		g.compute(s, run, gx, gy, pwg, half, half)
	}
	// Epilogue (lines 22-35): finish the last panel.
	if p.SharedA {
		g.loadPanelA(s, run, gx, pwg, half, half)
	}
	if p.SharedB {
		g.loadPanelB(s, run, gy, pwg, half, half)
	}
	g.compute(s, run, gx, gy, pwg, 0, half)
	g.compute(s, run, gx, gy, pwg, half, half)
	g.merge(s, run, gx, gy)
}
