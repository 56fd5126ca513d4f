package clc

import "testing"

// FuzzCompile asserts the front end never panics on arbitrary input —
// it either produces a program or a positioned error — and that every
// kernel of an accepted program compiles to bytecode, so Bind never
// fails on a compile error.
func FuzzCompile(f *testing.F) {
	seeds := []string{
		"",
		"__kernel void k() {}",
		"__kernel void k(__global double* o){ o[0] = 1.0; }",
		"__kernel void k(__global float* o){ float4 v = vload4(0, o); vstore4(v * (float4)(2.0f), 0, o); }",
		"__kernel void k(const int n, __global double* o){ for (int i = 0; i < n; i++) { o[i] += (double)(i); } }",
		"__kernel void k(__global double* o){ __local double lm[16]; lm[get_local_id(0)] = 0.0; barrier(CLK_LOCAL_MEM_FENCE); }",
		"#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n__kernel void k(__global double* o){ /* c */ o[0] = mad(1.0, 2.0, 3.0); }",
		"__kernel void k(__global double* o){ o[0] = (1 < 2) ? 3.0 : 4.0; }",
		"kernel void k(global double* o){ o[0] = 0x10 + 07; }",
		"__kernel void broken(",
		"__kernel void k(__global double* o){ o[0] = ; }",
		"int x = 5;",
		"/* unterminated",
		"__kernel void k(__global double* o){ o[0 = 1.0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Compile(src)
		if err == nil && prog == nil {
			t.Fatal("nil program without error")
		}
		if err != nil && prog != nil {
			t.Fatal("program returned alongside error")
		}
		if prog == nil {
			return
		}
		for _, k := range prog.Kernels {
			if err := k.CompileBytecode(); err != nil {
				t.Fatalf("kernel %s passes Compile but not CompileBytecode: %v", k.Name, err)
			}
		}
	})
}

// fuzzBodies seed FuzzRunTinyKernel.
var fuzzBodies = []string{
	"o[gid] = 1.0;",
	"o[gid] = o[gid] + 2.0;",
	"for (int i = 0; i < 4; i++) { o[gid] += (double)(i); }",
	"double2 v = vload2(0, o); vstore2(v, 0, o);",
	"o[gid] = (double)(gid % 3);",
	"o[100] = 1.0;",                        // out of bounds: must error, not crash
	"int z = 0; o[gid] = (double)(1 / z);", // div by zero: must error
}

// runTinyKernel compiles tinyKernel(body) and runs it on the optimized
// and the raw bytecode on one-item groups dispatched serially, requiring
// identical errors or bit-identical buffers. A source that does not
// compile or bind returns its error, a fine outcome for a fuzzed input.
func runTinyKernel(t *testing.T, body string) ([]float64, error) {
	t.Helper()
	prog, err := Compile(tinyKernel(body))
	if err != nil {
		return nil, err
	}
	k, err := prog.Kernel("k")
	if err != nil {
		return nil, err
	}
	run := func(optimize bool) ([]float64, error) {
		buf := make([]float64, 8)
		for i := range buf {
			buf[i] = float64(i) * 0.125
		}
		bk, err := k.Bind(buf)
		if err != nil {
			return nil, err
		}
		bk.SetOptimize(optimize)
		// Fuzzed bodies can contain non-terminating loops; the fuel
		// budget turns those into deterministic faults.
		bk.SetFuel(200000)
		q := newQueue()
		// Fuzzed kernels may write the same global location from every
		// work-item (undefined behaviour in OpenCL); single-item groups
		// dispatched serially keep such inputs deterministic instead of
		// racing.
		q.Workers = 1
		// Run may return an error (runtime faults); it must not panic
		// or deadlock.
		return buf, q.Run(bk, oneByFour())
	}
	buf, err := run(true)
	raw, rawErr := run(false)
	sameResult(t, body, buf, err, raw, rawErr)
	return buf, err
}

// FuzzRunTinyKernel mutates the body of a small kernel and checks the
// whole pipeline (compile → bind → run) never panics outside the
// executor's error channel, and that the optimized and the raw bytecode
// match bit-for-bit on every surviving input, including on whether the
// run faults: every fuzz input is an optimizer differential test.
func FuzzRunTinyKernel(f *testing.F) {
	for _, b := range fuzzBodies {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body string) {
		runTinyKernel(t, body)
	})
}
