// Command clcheck parses and semantically checks OpenCL C kernel files
// against the subset the clc front end supports (the subset the GEMM
// code generator emits), and verifies each kernel also compiles to the
// clc bytecode VM — the engine that executes kernels by default. Exit
// status 0 when every file checks.
//
// Usage: clcheck [-v] [-dump-bytecode] file.cl [file2.cl ...]
// With no arguments, reads a single translation unit from stdin.
// -dump-bytecode disassembles each kernel's compiled and optimized
// instruction streams so optimizer regressions are diagnosable.
//
// clcheck -selfcheck generates a grid of GEMM kernels across schedules
// and precisions, executes each on the simulated runtime, and verifies
// the results against the reference BLAS, reporting per-kernel
// simulated throughput; it then property-checks generated source across
// the whole valid small-tile parameter grid against the native Go
// kernels (exact match in double precision). -noopt runs the VM on
// unoptimized bytecode.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"oclgemm/internal/blas"
	"oclgemm/internal/clc"
	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/core"
	"oclgemm/internal/device"
	"oclgemm/internal/kernels"
	"oclgemm/internal/matrix"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if err != flag.ErrHelp {
			fmt.Fprintln(os.Stderr, "clcheck:", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("clcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: clcheck [-v] [-dump-bytecode] [file.cl ...]\n       clcheck -selfcheck [-noopt]\n")
		fs.PrintDefaults()
	}
	verbose := fs.Bool("v", false, "list kernels and their parameters")
	noopt := fs.Bool("noopt", false, "run the VM on unoptimized bytecode (differential escape hatch)")
	dump := fs.Bool("dump-bytecode", false, "disassemble each kernel's compiled and optimized bytecode")
	selfcheck := fs.Bool("selfcheck", false, "generate a grid of GEMM kernels, execute them, and verify against the reference BLAS and the native Go kernels")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *selfcheck {
		return selfCheck(stdout, stderr, *noopt)
	}

	failed := 0
	check := func(name, src string) {
		prog, err := clc.Compile(src)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			failed++
			return
		}
		for _, k := range prog.Kernels {
			if err := k.CompileBytecode(); err != nil {
				fmt.Fprintf(stderr, "%s: kernel %s: bytecode: %v\n", name, k.Name, err)
				failed++
				return
			}
		}
		fmt.Fprintf(stdout, "%s: OK (%d kernel(s))\n", name, len(prog.Kernels))
		if *dump {
			for _, k := range prog.Kernels {
				for _, opt := range []bool{false, true} {
					label := "compiled"
					if opt {
						label = "optimized"
					}
					asm, err := k.Disassemble(opt)
					if err != nil {
						fmt.Fprintf(stderr, "%s: kernel %s: disassemble: %v\n", name, k.Name, err)
						failed++
						continue
					}
					fmt.Fprintf(stdout, "\n; kernel %s (%s)\n%s", k.Name, label, asm)
				}
			}
		}
		if *verbose {
			for _, k := range prog.Kernels {
				fmt.Fprintf(stdout, "  __kernel %s(", k.Name)
				for i, p := range k.Params {
					if i > 0 {
						fmt.Fprint(stdout, ", ")
					}
					ptr := ""
					if p.Pointer {
						ptr = "*"
					}
					fmt.Fprintf(stdout, "%s%s %s", p.Type, ptr, p.Name)
				}
				fmt.Fprintln(stdout, ")")
			}
		}
	}

	if fs.NArg() == 0 {
		src, err := io.ReadAll(stdin)
		if err != nil {
			return err
		}
		check("<stdin>", string(src))
	}
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			failed++
			continue
		}
		check(path, string(data))
	}
	if failed > 0 {
		return fmt.Errorf("%d input(s) failed to check", failed)
	}
	return nil
}

// selfCheckGrid is the schedule grid the self-check sweeps: both
// precisions, all three algorithms, shared/unshared staging and both
// vector widths the small tile supports.
func selfCheckGrid() []codegen.Params {
	base := codegen.Params{
		Mwg: 16, Nwg: 16, Kwg: 8,
		MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
	var grid []codegen.Params
	for _, prec := range []matrix.Precision{matrix.Single, matrix.Double} {
		for _, alg := range codegen.Algorithms {
			for _, shared := range []bool{false, true} {
				for _, vw := range []int{1, 2} {
					p := base
					p.Precision, p.Algorithm, p.VectorWidth = prec, alg, vw
					p.SharedA, p.SharedB = shared, shared
					if p.Validate() != nil {
						continue
					}
					grid = append(grid, p)
				}
			}
		}
	}
	return grid
}

func selfCheck(stdout, stderr io.Writer, noOpt bool) error {
	engine := "bytecode"
	if noOpt {
		engine = "bytecode-noopt"
	}
	grid := selfCheckGrid()
	fmt.Fprintf(stdout, "self-check: %d kernel configurations, engine=%s\n", len(grid), engine)
	failed := 0
	for _, p := range grid {
		var err error
		var elapsed time.Duration
		if p.Precision == matrix.Double {
			elapsed, err = execAndVerify[float64](p, noOpt)
		} else {
			elapsed, err = execAndVerify[float32](p, noOpt)
		}
		if err != nil {
			fmt.Fprintf(stderr, "%-44s FAIL: %v\n", p.Name(), err)
			failed++
			continue
		}
		m, n, k := 2*p.Mwg, 2*p.Nwg, 2*p.Kwg
		mflops := 2 * float64(m) * float64(n) * float64(k) / elapsed.Seconds() / 1e6
		fmt.Fprintf(stdout, "%-44s OK  %8.2fms  %8.1f simulated MFlop/s\n",
			p.Name(), float64(elapsed.Microseconds())/1e3, mflops)
	}
	if failed > 0 {
		return fmt.Errorf("self-check: %d/%d kernels failed", failed, len(grid))
	}
	fmt.Fprintf(stdout, "self-check: all %d kernels verified against reference BLAS\n", len(grid))
	return wholeGridCheck(stdout, stderr, noOpt)
}

// wholeGridSpace is the parameter space the whole-grid property check
// sweeps: the smallest block sizes the generator supports, crossed with
// EVERY structural dimension — algorithm, staging, reshape divisors,
// unroll, vector width, stride modes, and layouts. Unlike the sampled
// random-config property tests, every valid point in this space runs.
func wholeGridSpace() core.Space {
	return core.Space{
		Mwg: []int{8, 16}, Nwg: []int{8, 16}, Kwg: []int{4, 8},
		MdimC: []int{4}, NdimC: []int{4},
		ReshapeDivisors: []int{2, 4},
		Kwi:             []int{1, 2},
		VectorWidths:    []int{1, 2},
		Algorithms:      codegen.Algorithms,
		Shared: []core.SharedMode{
			{A: false, B: false}, {A: true, B: false}, {A: false, B: true}, {A: true, B: true},
		},
		Strides: []core.StrideMode{
			{M: false, N: false}, {M: true, N: false}, {M: false, N: true}, {M: true, N: true},
		},
		Layouts: []core.LayoutPair{
			{A: matrix.LayoutCBL, B: matrix.LayoutCBL},
			{A: matrix.LayoutCBL, B: matrix.LayoutRBL},
			{A: matrix.LayoutRBL, B: matrix.LayoutRBL},
			{A: matrix.LayoutRowMajor, B: matrix.LayoutRowMajor},
		},
		MaxWorkItemTile: 16,
		MinWorkGroup:    16,
		MaxWorkGroup:    256,
	}
}

// wholeGridCheck executes generated source through the VM for every
// valid parameter set in wholeGridSpace and demands an exact
// (bit-identical) match against the native Go kernels, which run the
// same schedule in the same accumulation order in double precision.
func wholeGridCheck(stdout, stderr io.Writer, noOpt bool) error {
	dev := device.Tahiti()
	start := time.Now()
	ran, failed := 0, 0
	valid, rejected := wholeGridSpace().Enumerate(dev, matrix.Double, func(p codegen.Params) bool {
		ran++
		if err := gridExecOne(p, noOpt); err != nil {
			fmt.Fprintf(stderr, "whole-grid %-44s FAIL: %v\n", p.Name(), err)
			failed++
		}
		return failed < 20 // don't drown the log when something is systemically broken
	})
	if failed > 0 {
		return fmt.Errorf("whole-grid: %d/%d kernels failed", failed, ran)
	}
	fmt.Fprintf(stdout, "whole-grid: %d kernels bit-identical to native Go kernels (%d invalid rejected) in %.1fs\n",
		valid, rejected, time.Since(start).Seconds())
	return nil
}

// gridExecOne runs one whole-grid point: generated source on the VM vs
// the native Go kernel, exact match required.
func gridExecOne(p codegen.Params, noOpt bool) error {
	m, n, k := 2*p.Mwg, 2*p.Nwg, 2*p.Kwg
	src, err := p.GenerateSource()
	if err != nil {
		return fmt.Errorf("generate: %v", err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		return fmt.Errorf("compile: %v", err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(31))
	a := matrix.New[float64](m, k, matrix.RowMajor)
	b := matrix.New[float64](k, n, matrix.RowMajor)
	c := matrix.New[float64](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	alpha, beta := 1.5, -0.25
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)

	cGen := c.Clone()
	bound, err := kern.Bind(m, n, k, alpha, beta, at.Data, bp.Data, cGen.Data)
	if err != nil {
		return fmt.Errorf("bind: %v", err)
	}
	bound.SetOptimize(!noOpt)
	bound.SetFuel(1 << 24)
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	if err := q.Run(bound, nd); err != nil {
		return fmt.Errorf("run: %v", err)
	}

	cNat := c.Clone()
	nat, err := kernels.NewGEMM(p, m, n, k, alpha, at.Data, bp.Data, beta, cNat.Data)
	if err != nil {
		return fmt.Errorf("native kernel: %v", err)
	}
	if err := q.RunLockstep(nat, nat.NDRange()); err != nil {
		return fmt.Errorf("native run: %v", err)
	}
	if d := matrix.MaxRelDiff(cGen, cNat); d != 0 {
		return fmt.Errorf("VM output differs from native Go kernel by %g (want exact)", d)
	}
	return nil
}

// execAndVerify generates p's source, compiles it, runs it on the
// simulated runtime on the optimized (or, with noOpt, the raw) bytecode
// at a multi-work-group size, and compares the result against the
// reference BLAS.
func execAndVerify[T matrix.Scalar](p codegen.Params, noOpt bool) (time.Duration, error) {
	m, n, k := 2*p.Mwg, 2*p.Nwg, 2*p.Kwg
	src, err := p.GenerateSource()
	if err != nil {
		return 0, fmt.Errorf("generate: %v", err)
	}
	prog, err := clc.Compile(src)
	if err != nil {
		return 0, fmt.Errorf("compile: %v", err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(17))
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
		return 0, fmt.Errorf("bind: %v", err)
	}
	bound.SetOptimize(!noOpt)
	bound.SetFuel(1 << 24)
	q := clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	start := time.Now()
	if err := q.Run(bound, nd); err != nil {
		return 0, fmt.Errorf("run: %v", err)
	}
	elapsed := time.Since(start)
	tol := matrix.Tolerance(p.Precision, k)
	if diff := matrix.MaxRelDiff(c, want); diff > tol {
		return 0, fmt.Errorf("max rel diff %g (tol %g) vs reference", diff, tol)
	}
	return elapsed, nil
}
