package core

import (
	"fmt"
	"math/rand"

	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/gemmimpl"
	"oclgemm/internal/matrix"
)

// Verifier checks that a parameter set's generated kernel computes a
// correct product on its device; nil means the kernel passed testing.
// The default (VerifyParams) executes the kernel on the simulated
// runtime; fault-injection harnesses substitute their own.
type Verifier func(d *device.Spec, p *codegen.Params) error

// VerifyParams is the paper's "passed testing" step, at full strength:
// first the native Go kernel runs on a small problem whose dimensions
// are not multiples of the blocking factors (exercising padding), then
// the generated OpenCL C source itself runs through the clc bytecode VM
// at a realistic multi-work-group size (VerifySource). Both are
// compared against the internal/blas reference. A mismatch returns an
// error wrapping ErrWrongResult; a failure to build or launch wraps
// ErrCompile.
func VerifyParams(d *device.Spec, p *codegen.Params) error {
	im, err := gemmimpl.New(d, *p)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCompile, err)
	}
	if p.Precision == matrix.Double {
		err = verifyImpl[float64](im, p)
	} else {
		err = verifyImpl[float32](im, p)
	}
	if err != nil {
		return err
	}
	return VerifySource(d, p)
}

// VerifySource checks the generated OpenCL C text end to end: generate,
// compile with clc, and execute on the simulated runtime's bytecode VM
// at multi-work-group sizes so the schedule's staging, barriers and
// unrolled loops all execute as they would on a device. Two grid shapes
// run: the historical 2×2 work-groups with two full k-blocks, plus a
// non-square 3×2 grid with three k-blocks that catches bugs the square
// shape aliases away (group-id mixups, k-loop trip-count errors). Both
// grids bind the one compiled kernel and run on one queue, so the source
// is generated, compiled and optimized once and the second launch reuses
// the first one's lane storage. A loop-fuel bound turns pathological
// non-terminating kernels into ErrCompile faults instead of hangs.
func VerifySource(d *device.Spec, p *codegen.Params) error {
	src, err := p.GenerateSource()
	if err != nil {
		return fmt.Errorf("%w: generate: %v", ErrCompile, err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		return fmt.Errorf("%w: clc: %v", ErrCompile, err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrCompile, err)
	}
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: d}))
	for _, g := range [][3]int{{2, 2, 2}, {3, 2, 3}} {
		if p.Precision == matrix.Double {
			err = verifySource[float64](q, p, kern, g)
		} else {
			err = verifySource[float32](q, p, kern, g)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// verifySource binds kern on one work-group grid, runs it on q and
// checks the result against the reference.
func verifySource[T matrix.Scalar](q *clsim.Queue, p *codegen.Params, kern *clc.KernelDecl, grid [3]int) error {
	m, n, k := grid[0]*p.Mwg, grid[1]*p.Nwg, grid[2]*p.Kwg
	// A distinct seed from verifyImpl so the two stages never mask the
	// same data-dependent bug.
	rng := rand.New(rand.NewSource(43))
	a := matrix.New[T](m, k, matrix.RowMajor)
	b := matrix.New[T](k, n, matrix.RowMajor)
	c := matrix.New[T](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, T(1.5), a, b, T(-0.25), want)

	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	bound, err := kern.Bind(m, n, k, T(1.5), T(-0.25), at.Data, bp.Data, c.Data)
	if err != nil {
		return fmt.Errorf("%w: bind: %v", ErrCompile, err)
	}
	bound.SetFuel(1 << 26)
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	if err := q.Run(bound, nd); err != nil {
		return fmt.Errorf("%w: source run: %v", ErrCompile, err)
	}
	tol := matrix.Tolerance(p.Precision, k)
	if diff := matrix.MaxRelDiff(c, want); diff > tol {
		return fmt.Errorf("%w: generated source max rel diff %g (tol %g) vs reference on %dx%dx%d",
			ErrWrongResult, diff, tol, m, n, k)
	}
	return nil
}

func verifyImpl[T matrix.Scalar](im *gemmimpl.Impl, p *codegen.Params) error {
	// Odd sizes force the pad/unpad path; the fixed seed keeps the gate
	// deterministic.
	m, n, k := 7, 9, 5
	rng := rand.New(rand.NewSource(42))
	a := matrix.New[T](m, k, matrix.ColMajor)
	b := matrix.New[T](k, n, matrix.ColMajor)
	c := matrix.New[T](m, n, matrix.ColMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want := c.Clone()
	blas.GEMM(blas.NoTrans, blas.NoTrans, T(1.5), a, b, T(-0.25), want)

	if err := gemmimpl.Run(im, blas.NoTrans, blas.NoTrans, T(1.5), a, b, T(-0.25), c); err != nil {
		return fmt.Errorf("%w: verification run: %v", ErrCompile, err)
	}
	// The padded K can exceed k by a whole Kwg block, so widen the
	// usual k-scaled tolerance accordingly.
	tol := matrix.Tolerance(p.Precision, k+p.Kwg)
	if diff := matrix.MaxRelDiff(c, want); diff > tol {
		return fmt.Errorf("%w: max rel diff %g (tol %g) vs reference on %dx%dx%d", ErrWrongResult, diff, tol, m, n, k)
	}
	return nil
}
