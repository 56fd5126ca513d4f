package kernels

import (
	"fmt"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
	"oclgemm/internal/obs"
)

// Pack is the native executable form of the §III-D copy kernel: it
// reads a row-major source (leading dimension LD, logical SR×SC,
// optionally transposed) and writes the R×C zero-padded destination in
// a block-major layout. It mirrors codegen.GeneratePackSource exactly;
// the integration tests diff the two.
type Pack[T matrix.Scalar] struct {
	P          codegen.PackParams
	SR, SC, LD int
	R, C       int
	S          []T
	D          []T

	geo    panelGeom
	groups *obs.Counter
}

// NewPack validates shapes and builds the kernel.
func NewPack[T matrix.Scalar](p codegen.PackParams, sr, sc, ld, r, c int, s, d []T) (*Pack[T], error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if r%p.Rb != 0 || c%p.Cb != 0 {
		return nil, fmt.Errorf("kernels: pack destination %dx%d not padded to %dx%d", r, c, p.Rb, p.Cb)
	}
	if ld < sc {
		return nil, fmt.Errorf("kernels: pack LD %d below SC %d", ld, sc)
	}
	if len(s) < (sr-1)*ld+sc && sr > 0 {
		return nil, fmt.Errorf("kernels: pack source buffer too small")
	}
	if len(d) < r*c {
		return nil, fmt.Errorf("kernels: pack destination buffer too small")
	}
	return &Pack[T]{
		P: p, SR: sr, SC: sc, LD: ld, R: r, C: c, S: s, D: d,
		geo: panelGeom{layout: p.Layout, rows: r, cols: c, rb: p.Rb, cb: p.Cb},
	}, nil
}

// SetObserver resolves the pack kernel's work-group counter
// (kernels.pack.groups{micro=unit}). A nil registry detaches.
func (k *Pack[T]) SetObserver(r *obs.Registry) { k.groups = groupCounter(r, "pack") }

// Name implements clsim.GroupKernel.
func (k *Pack[T]) Name() string {
	return fmt.Sprintf("pack_%s_%dx%d", k.P.Layout, k.P.Rb, k.P.Cb)
}

// Rebind points a prebuilt pack kernel at a new source (geometry,
// transpose flag and buffer) keeping the destination shape and layout.
// The execution engine uses it to relaunch one kernel instance per
// operand instead of rebuilding kernels every call.
func (k *Pack[T]) Rebind(sr, sc, ld int, transpose bool, s []T) error {
	if ld < sc {
		return fmt.Errorf("kernels: pack LD %d below SC %d", ld, sc)
	}
	if sr > 0 && len(s) < (sr-1)*ld+sc {
		return fmt.Errorf("kernels: pack source buffer too small")
	}
	k.SR, k.SC, k.LD, k.S = sr, sc, ld, s
	k.P.Transpose = transpose
	return nil
}

// NDRange returns the launch geometry.
func (k *Pack[T]) NDRange() clsim.NDRange {
	g, l := k.P.PackNDRange(k.R, k.C)
	return clsim.NDRange{Global: g, Local: l}
}

// RunGroup implements clsim.GroupKernel. It processes the group's
// destination tile row by row, splitting each row at Cb block
// boundaries so every segment is contiguous in the destination.
// Untransposed sources are row-major and unit-stride along c, so valid
// segments reduce to copy(); the transposed read is a column gather
// (LD-strided). Out-of-source elements are zero-filled with clear().
// One PhaseBarrier stands for the barrier that ends the pack phase.
func (k *Pack[T]) RunGroup(run *clsim.GroupRun) {
	k.groups.Inc()
	c0 := run.GlobalID0(0)
	r0 := run.GlobalID1(0)
	c1 := min(c0+run.LocalSize(0), k.C)
	r1 := min(r0+run.LocalSize(1), k.R)
	cb := k.P.Cb
	for r := r0; r < r1; r++ {
		for c := c0; c < c1; {
			blk := c / cb
			segEnd := min((blk+1)*cb, c1)
			start := k.geo.rowStart(r, blk) + c%cb
			dst := k.D[start : start+segEnd-c]
			switch {
			case k.P.Transpose && r < k.SC:
				valid := min(segEnd, k.SR)
				i := 0
				for cc := c; cc < valid; cc++ {
					dst[i] = k.S[cc*k.LD+r]
					i++
				}
				clear(dst[i:])
			case !k.P.Transpose && r < k.SR:
				valid := min(segEnd, k.SC)
				n := 0
				if valid > c {
					n = copy(dst[:valid-c], k.S[r*k.LD+c:r*k.LD+valid])
				}
				clear(dst[n:])
			default:
				clear(dst)
			}
			c = segEnd
		}
	}
	run.PhaseBarrier()
}
