package clc

import (
	"errors"
	"math"
	"strings"
	"testing"

	"oclgemm/internal/clsim"
	"oclgemm/internal/device"
)

// run compiles and runs kernel on a fresh queue and returns its stats.
func run(t *testing.T, src, kernel string, nd clsim.NDRange, args ...any) clsim.QueueStats {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	k, err := prog.Kernel(kernel)
	if err != nil {
		t.Fatal(err)
	}
	bk, err := k.Bind(args...)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)
	if err := q.Run(bk, nd); err != nil {
		t.Fatalf("run: %v", err)
	}
	return q.Stats()
}

func TestVectorAdd(t *testing.T) {
	src := `
// simple element-wise add
__kernel void add(const int n, __global const double* restrict a,
                  __global const double* restrict b, __global double* c)
{
    const int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + b[i];
    }
}`
	n := 16
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = 100
	}
	run(t, src, "add", clsim.NDRange{Global: [2]int{n, 1}, Local: [2]int{4, 1}}, n, a, b, c)
	for i := range c {
		if c[i] != float64(i)+100 {
			t.Fatalf("c[%d] = %v", i, c[i])
		}
	}
}

func TestForLoopAndCompoundAssign(t *testing.T) {
	src := `
__kernel void sums(__global double* out)
{
    int acc = 0;
    for (int i = 0; i < 10; i++) {
        acc += i * i;
    }
    out[get_global_id(0)] = (double)(acc);
}`
	out := make([]float64, 2)
	run(t, src, "sums", clsim.NDRange{Global: [2]int{2, 1}, Local: [2]int{2, 1}}, out)
	if out[0] != 285 || out[1] != 285 {
		t.Errorf("out = %v, want 285", out)
	}
}

func TestLocalMemoryReverseWithBarrier(t *testing.T) {
	src := `
__kernel void rev(__global double* data)
{
    __local double lm[8];
    const int lx = get_local_id(0);
    const int base = get_group_id(0) * 8;
    lm[lx] = data[base + lx];
    barrier(CLK_LOCAL_MEM_FENCE);
    data[base + lx] = lm[7 - lx];
}`
	data := make([]float64, 16)
	for i := range data {
		data[i] = float64(i)
	}
	st := run(t, src, "rev", clsim.NDRange{Global: [2]int{16, 1}, Local: [2]int{8, 1}}, data)
	want := []float64{7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("data[%d] = %v, want %v", i, data[i], want[i])
		}
	}
	// Every work-item arrives at the one barrier.
	if st.KernelLaunches != 1 || st.WorkGroupsRun != 2 || st.WorkItemsRun != 16 || st.BarriersHit != 16 {
		t.Errorf("stats wrong: %+v", st)
	}
}

// TestLocalMemoryLimit: __local arrays larger than the device's local
// memory fail the launch with clsim.ErrLocalMemExceeded.
func TestLocalMemoryLimit(t *testing.T) {
	prog, err := Compile(`__kernel void k(__global double* o)
{
    __local double big[1048576];
    big[get_local_id(0)] = 1.0;
    o[get_global_id(0)] = big[0];
}`)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("k")
	bk, err := k.Bind(make([]float64, 16))
	if err != nil {
		t.Fatal(err)
	}
	err = newQueue().Run(bk, clsim.NDRange{Global: [2]int{16, 1}, Local: [2]int{16, 1}})
	if !errors.Is(err, clsim.ErrLocalMemExceeded) {
		t.Errorf("want ErrLocalMemExceeded, got %v", err)
	}
}

func TestVectorTypesAndVload(t *testing.T) {
	src := `
__kernel void scale(__global float* data, const float s)
{
    const int i = get_global_id(0);
    float4 v = vload4(i, data);
    v = v * (float4)(s) + (float4)(1.0f, 2.0f, 3.0f, 4.0f);
    vstore4(v, i, data);
}`
	data := make([]float32, 8)
	for i := range data {
		data[i] = float32(i)
	}
	run(t, src, "scale", clsim.NDRange{Global: [2]int{2, 1}, Local: [2]int{2, 1}}, data, float32(2))
	want := []float32{1, 4, 7, 10, 9, 12, 15, 18}
	for i := range data {
		if data[i] != want[i] {
			t.Fatalf("data[%d] = %v, want %v", i, data[i], want[i])
		}
	}
}

func TestMadAndVectorArrays(t *testing.T) {
	src := `
__kernel void k(__global double* out)
{
    double2 acc[2];
    acc[0] = (double2)(0.0);
    acc[1] = (double2)(0.0);
    for (int i = 1; i <= 3; i++) {
        acc[0] = mad((double2)(i), (double2)(2.0, 3.0), acc[0]);
        acc[1] += (double2)(i);
    }
    vstore2(acc[0], 0, out);
    vstore2(acc[1], 1, out);
}`
	out := make([]float64, 4)
	run(t, src, "k", clsim.NDRange{Global: [2]int{1, 1}, Local: [2]int{1, 1}}, out)
	// acc0 = (1+2+3)*(2,3) = (12, 18); acc1 = (6, 6).
	want := []float64{12, 18, 6, 6}
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestFloat32Rounding(t *testing.T) {
	src := `
__kernel void k(__global float* out)
{
    float x = 16777216.0f; // 2^24: adding 1.0f is lost in float
    x = x + 1.0f;
    out[0] = x;
}`
	out := make([]float32, 1)
	run(t, src, "k", clsim.NDRange{Global: [2]int{1, 1}, Local: [2]int{1, 1}}, out)
	if out[0] != 16777216.0 {
		t.Errorf("float arithmetic must round to 32-bit: got %v", out[0])
	}
}

func TestTernaryMinMaxShifts(t *testing.T) {
	src := `
__kernel void k(__global double* out)
{
    int a = 13;
    int b = a % 5;      // 3
    int c = a >> 1;     // 6
    int d = (b < c) ? (b << 2) : 0; // 12
    out[0] = (double)(min(d, 10));  // 10
    out[1] = (double)(max(d, 20));  // 20
    out[2] = (c >= 6 && b != 0) ? 1.0 : 0.0;
}`
	out := make([]float64, 3)
	run(t, src, "k", clsim.NDRange{Global: [2]int{1, 1}, Local: [2]int{1, 1}}, out)
	if out[0] != 10 || out[1] != 20 || out[2] != 1 {
		t.Errorf("out = %v", out)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := map[string]string{
		"no kernels":        `int x;`,
		"undeclared":        `__kernel void k(__global double* o){ o[0] = y; }`,
		"redeclared":        `__kernel void k(__global double* o){ int x = 0; double x = 1.0; }`,
		"unknown func":      `__kernel void k(__global double* o){ o[0] = sin(1.0); }`,
		"bad arity":         `__kernel void k(__global double* o){ o[0] = mad(1.0, 2.0); }`,
		"array initializer": `__kernel void k(__global double* o){ double a[2] = 0.0; }`,
		"variable length":   `__kernel void k(const int n, __global double* o){ double a[n]; }`,
		"unterminated":      `__kernel void k(__global double* o){ o[0] = 1.0;`,
		"bad char":          `__kernel void k(__global double* o){ o[0] = $1; }`,
		"assign to call":    `__kernel void k(__global double* o){ get_global_id(0) = 1; }`,
		"void variable":     `__kernel void k(__global double* o){ void v = 0.1; o[0] = v; }`,
		"void local array":  `__kernel void k(__global double* o){ __local void lm[4]; o[0] = 1.0; }`,
	}
	for name, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("%s: expected compile error", name)
		}
	}
}

func TestRuntimeErrors(t *testing.T) {
	ctx := clsim.NewContext(&clsim.Device{Spec: device.Tahiti()})
	q := clsim.NewQueue(ctx)
	nd := clsim.NDRange{Global: [2]int{1, 1}, Local: [2]int{1, 1}}

	cases := map[string]string{
		"oob index": `__kernel void k(__global double* o){ o[99] = 1.0; }`,
		"div zero":  `__kernel void k(__global double* o){ int z = 0; o[0] = (double)(1 / z); }`,
		"oob vload": `__kernel void k(__global double* o){ double2 v = vload2(50, o); o[0] = 1.0; }`,
	}
	for name, src := range cases {
		prog, err := Compile(src)
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		k, _ := prog.Kernel("k")
		bk, err := k.Bind(make([]float64, 4))
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Run(bk, nd); err == nil {
			t.Errorf("%s: expected runtime error", name)
		}
	}
}

func TestBindErrors(t *testing.T) {
	prog, err := Compile(`__kernel void k(const int n, __global double* o){ o[0] = (double)(n); }`)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("k")
	if _, err := k.Bind(1); err == nil {
		t.Error("wrong arg count must fail")
	}
	if _, err := k.Bind(1.5, make([]float64, 1)); err == nil {
		t.Error("float for int param must fail")
	}
	if _, err := k.Bind(1, make([]float32, 1)); err == nil {
		t.Error("float32 buffer for double param must fail")
	}
	if _, err := k.Bind(1, "nope"); err == nil {
		t.Error("string arg must fail")
	}
	if _, err := prog.Kernel("missing"); err == nil {
		t.Error("unknown kernel must fail")
	}
}

func TestCommentsAndPragmasSkipped(t *testing.T) {
	src := `
#pragma OPENCL EXTENSION cl_khr_fp64 : enable
/* header
   comment */
__kernel void k(__global double* o)
{
    // line comment
    o[get_global_id(0)] = 42.0; /* trailing */
}`
	out := make([]float64, 2)
	run(t, src, "k", clsim.NDRange{Global: [2]int{2, 1}, Local: [2]int{1, 1}}, out)
	if out[0] != 42 || out[1] != 42 {
		t.Errorf("out = %v", out)
	}
}

const idsSrc = `
__kernel void ids(__global double* o)
{
    const int gx = get_global_id(0);
    const int gy = get_global_id(1);
    const int w = get_global_size(0);
    o[gy * w + gx] = (double)(get_group_id(0) + 10 * get_group_id(1)
        + 100 * get_local_id(0) + 1000 * get_local_id(1)
        + 10000 * get_num_groups(0));
}`

func TestTwoDimensionalIDs(t *testing.T) {
	out := make([]float64, 4*4)
	run(t, idsSrc, "ids", clsim.NDRange{Global: [2]int{4, 4}, Local: [2]int{2, 2}}, out)
	// Item at global (3, 2): group (1, 1), local (1, 0), num groups 2.
	if got := out[2*4+3]; got != float64(1+10+100+0+20000) {
		t.Errorf("ids wrong: %v", got)
	}
	out = make([]float64, 8*6)
	run(t, idsSrc, "ids", clsim.NDRange{Global: [2]int{8, 6}, Local: [2]int{4, 3}}, out)
	// Item at global (5, 4): group (1, 1), local (1, 1), num groups 2.
	if got := out[4*8+5]; got != float64(1+10+100+1000+20000) {
		t.Errorf("ids wrong: %v", got)
	}
}

// TestWorkersDeterministic: the Workers option spreads work-groups over
// goroutines and must not change results.
func TestWorkersDeterministic(t *testing.T) {
	prog, err := Compile(idsSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, _ := prog.Kernel("ids")
	nd := clsim.NDRange{Global: [2]int{8, 4}, Local: [2]int{4, 2}}
	var ref []float64
	for _, workers := range []int{1, 3} {
		out := make([]float64, 32)
		bk, err := k.Bind(out)
		if err != nil {
			t.Fatal(err)
		}
		q := newQueue()
		q.Workers = workers
		if err := q.Run(bk, nd); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = out
			continue
		}
		for i, v := range out {
			if math.Float64bits(v) != math.Float64bits(ref[i]) {
				t.Fatalf("workers=%d: out[%d] = %v, want %v", workers, i, v, ref[i])
			}
		}
	}
}

func TestErrorPositions(t *testing.T) {
	_, err := Compile("__kernel void k(__global double* o)\n{\n    o[0] = bad;\n}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error should carry position: %v", err)
	}
	// void is no value type: variables and arrays of it are refused
	// where they are declared.
	for src, want := range map[string]string{
		"__kernel void k(__global double* o)\n{\n const int gid = get_global_id(0);\n void v = 0.1 + gid * 0;\n o[gid] = v;\n}": `kernel k: clc: line 4:2: "v" declared void`,
		"__kernel void k(__global double* o)\n{\n __local void lm[4];\n o[0] = 1.0;\n}":                                         `kernel k: clc: line 3:2: "lm" declared void`,
	} {
		if _, err := Compile(src); err == nil || err.Error() != want {
			t.Errorf("got %v, want %q", err, want)
		}
	}
}
