package clc

// Differential tests: the optimized and the raw bytecode must match
// bit-for-bit, on results and on faults, across a feature-coverage
// corpus of hand-written kernels and the generated-kernel space.
// TestEngineGolden pins what both compute.

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/device"
	"oclgemm/internal/matrix"
)

func newQueue() *clsim.Queue {
	return clsim.NewQueue(clsim.NewContext(&clsim.Device{Spec: device.Tahiti()}))
}

func bitsOf[T float32 | float64](x T) uint64 {
	if f, ok := any(x).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(x))
}

// sameResult fails t unless the optimized run (opt, optErr) and the
// raw-bytecode run (raw, rawErr) match: the same error string, or
// bit-identical buffers.
func sameResult[T float32 | float64](t *testing.T, what string, opt []T, optErr error, raw []T, rawErr error) {
	t.Helper()
	if (optErr == nil) != (rawErr == nil) || optErr != nil && optErr.Error() != rawErr.Error() {
		t.Fatalf("%s: optimized and raw bytecode disagree on error:\n opt: %v\n raw: %v", what, optErr, rawErr)
	}
	for i := range opt {
		if optErr == nil && bitsOf(opt[i]) != bitsOf(raw[i]) {
			t.Fatalf("%s: optimized and raw bytecode disagree at [%d]: opt=%v raw=%v", what, i, opt[i], raw[i])
		}
	}
}

// runBoth compiles src, binds it twice over independent copies of a
// float64 buffer of length n, runs the optimized and the raw bytecode,
// and requires identical faults or bit-identical buffers.
func runBoth(t *testing.T, src string, n int, nd clsim.NDRange) ([]float64, error) {
	t.Helper()
	buf, _, err := runBothHits(t, src, n, nd)
	return buf, err
}

// runBothHits is runBoth that also returns the optimized run's queue
// BarriersHit.
func runBothHits(t *testing.T, src string, n int, nd clsim.NDRange) ([]float64, int64, error) {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	kern, err := prog.Kernel("k")
	if err != nil {
		t.Fatal(err)
	}
	var hits int64
	run := func(optimize bool) ([]float64, error) {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = float64(i%5) * 0.375
		}
		bk, err := kern.Bind(buf)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		bk.SetOptimize(optimize)
		bk.SetFuel(1 << 20)
		q := newQueue()
		q.Workers = 1
		err = q.Run(bk, nd)
		if optimize {
			hits = q.Stats().BarriersHit
		}
		return buf, err
	}
	buf, err := run(true)
	raw, rawErr := run(false)
	sameResult(t, src, buf, err, raw, rawErr)
	return buf, hits, err
}

// tinyKernel wraps body in a one-buffer kernel k(o) with gid in scope.
func tinyKernel(body string) string {
	return "__kernel void k(__global double* o)\n{\n const int gid = get_global_id(0);\n" + body + "\n}"
}

func oneByFour() clsim.NDRange {
	return clsim.NDRange{Global: [2]int{4, 1}, Local: [2]int{1, 1}}
}

// featureCases sweep the language subset feature by feature.
var featureCases = []struct {
	name string
	body string
}{
	{"ternary", "o[gid] = (gid > 0 && gid < 3) ? 1.5 : -2.25;"},
	{"short_circuit_or", "o[gid] = (gid == 0 || 1 / gid > 0) ? 3.0 : 4.0;"},
	{"min_max_int", "o[gid] = (double)(min(gid, 2) + max(gid, 1));"},
	{"min_max_float_quirk", "o[gid] = min(0.5f, (float)(gid)) + max(1.5, (double)(gid));"},
	{"mad", "o[gid] = mad(o[gid], 2.0, 1.0) + fma(0.5, (double)(gid), o[gid]);"},
	{"casts", "o[gid] = (double)((int)(2.9)) + (double)((float)(1.0 / 3.0));"},
	{"uint_collapse", "uint u = 7; o[gid] = (double)(u + gid);"},
	{"vector_ctor_broadcast", "double2 v = (double2)(1.25); vstore2(v, gid, o);"},
	{"vector_ctor_components", "double4 v = (double4)(1.0, 2.0, (double)(gid), 4.0); double tmp[4]; vstore4(v, 0, tmp); o[gid] = tmp[0] + tmp[2] + tmp[3];"},
	{"vector_arith", "double2 v = vload2(gid, o); vstore2(v * (double2)(2.0) + (double2)(1.0, -1.0), gid, o);"},
	{"loop_accumulate", "double acc = 0.0; for (int i = 0; i < 5; i++) { acc += (double)(i) * 0.5; } o[gid] = acc;"},
	{"loop_shadowing", "double x = 9.0; for (int i = 0; i < 2; i++) { double x = (double)(i); o[gid] += x; } o[gid] += x;"},
	{"loop_decl_rezero", "for (int i = 0; i < 3; i++) { int z; o[gid] += (double)(z); z = 5; }"},
	{"nested_loops", "for (int i = 0; i < 3; i++) { for (int j = 0; j < 2; j++) { o[gid] += (double)(i * 2 + j); } }"},
	{"compound_array_assign", "o[gid] *= 2.0; o[gid] += 0.5; o[gid] -= 0.25; o[gid] /= 2.0;"},
	{"builtin_const_shadow", "int CLK_GLOBAL_MEM_FENCE = 9; o[gid] = (double)(CLK_GLOBAL_MEM_FENCE);"},
	{"unary_ops", "o[gid] = -o[gid] + (double)(~gid) + (double)(!gid);"},
	{"int_ops", "o[gid] = (double)(((gid << 2) | (gid & 1)) ^ ((gid % 3) + (5 / (gid + 1)) - (gid >> 1)));"},
	{"comparisons", "o[gid] = (double)((gid < 2) + (gid <= 2) + (gid > 2) + (gid >= 2) + (gid == 2) + (gid != 2));"},
	{"if_else_chain", "if (gid == 0) { o[gid] = 1.0; } else if (gid == 1) { o[gid] = 2.0; } else { o[gid] = 3.0; }"},
	{"private_array", "double acc[4]; for (int i = 0; i < 4; i++) { acc[i] = (double)(i); } o[gid] = acc[gid];"},
	{"dead_branch_error", "if (gid < 0) { o[100] = 1.0; } o[gid] = 1.0;"},
	{"const_fold_divzero_guard", "o[gid] = (gid == 0) ? 1.0 : (double)(4 / gid);"},
	{"float_literal_single", "o[gid] = (double)(0.1f) + 0.1;"},
	{"work_item_funcs", "o[gid] = (double)(get_global_id(0) + get_local_id(0) * 10 + get_group_id(0) * 100 + get_local_size(0) * 1000 + get_global_size(0) * 10000 + get_num_groups(0) * 100000);"},
	{"runtime_casts", "o[gid] = (double)((float)(o[gid] / 7.0)) + (double)((int)(o[gid] * 2.5));"},
	// 0.0 and -0.0 compare equal but are different constants.
	{"signed_zero_consts", "double a = 0.0; double b = -0.0; o[0] = 1.0 / a; o[1] = 1.0 / b;"},
}

// TestVMFeatureCoverage sweeps the language subset feature by feature;
// each body runs on the optimized and the raw bytecode, which must
// match bit-for-bit.
func TestVMFeatureCoverage(t *testing.T) {
	for _, tc := range featureCases {
		t.Run(tc.name, func(t *testing.T) {
			runBoth(t, tinyKernel(tc.body), 8, oneByFour())
		})
	}
}

// localBarrierSrc stages through __local memory with real cross-item
// communication across a barrier; it runs at localBarrierND.
const localBarrierSrc = `__kernel void k(__global double* o)
{
    const int gid = get_global_id(0);
    const int lid = get_local_id(0);
    __local double lm[2];
    lm[lid] = (double)(gid + 1);
    barrier(CLK_LOCAL_MEM_FENCE);
    o[gid] = lm[(lid + 1) % 2];
}`

var localBarrierND = clsim.NDRange{Global: [2]int{4, 1}, Local: [2]int{2, 1}}

// barrierCases run at barrierND, two groups of four items, and are
// pinned by TestEngineGolden with the queue's barrier count when they
// succeed.
var barrierCases = []struct{ name, src string }{
	// A uniform loop with two barriers per iteration: 8 items × 3
	// iterations × 2 barriers = 48 arrivals.
	{"uniform_loop", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(0);
    const int lid = get_local_id(0);
    __local double lm[4];
    double acc = 0.0;
    for (int i = 0; i < 3; i++) {
        lm[lid] = o[gid] + (double)(i);
        barrier(CLK_LOCAL_MEM_FENCE);
        acc += lm[(lid + i + 1) % 4];
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    o[gid] = acc;
}`},
	// One item faults while the others of its group wait at the barrier.
	{"fault_while_parked", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(0);
    if (get_local_id(0) == 2) {
        o[gid + 100] = 1.0;
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    o[gid] = 2.0;
}`},
}

var barrierND = clsim.NDRange{Global: [2]int{8, 1}, Local: [2]int{4, 1}}

// divergentCases do not stop every item of a group at the same barrier
// and must fail with ErrBarrierDivergence. A goroutine-per-item
// executor with a cyclic barrier decides the first by timing (items 2
// and 3 may finish before items 0 and 1 arrive) and passes the second
// (every item arrives at some barrier); lockstep sweeps reject both.
var divergentCases = []struct{ name, src string }{
	{"diverge_finish", `__kernel void k(__global double* o)
{
    if (get_local_id(0) < 2) {
        barrier(CLK_LOCAL_MEM_FENCE);
    }
    o[get_global_id(0)] = 1.0;
}`},
	{"diverge_if_else", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(0);
    if (get_local_id(0) < 2) {
        barrier(CLK_LOCAL_MEM_FENCE);
        o[gid] = 1.0;
    } else {
        barrier(CLK_LOCAL_MEM_FENCE);
        o[gid] = 2.0;
    }
}`},
}

// laneND runs the laneCases on two groups of 2×2 items, so linear
// local ids (ly*2 + lx) differ from the x ids.
var laneND = clsim.NDRange{Global: [2]int{4, 2}, Local: [2]int{2, 2}}

// laneCases pin what a group computes when its items take different
// paths between barriers: the items of a group must behave as if each
// ran alone, and when several fault, the fault of the lowest linear
// local id in the earliest barrier segment is the one reported. want is
// a substring of the expected fault, or "" for success.
var laneCases = []struct{ name, src, want string }{
	// Trip counts 1, 3, 5, 7; the items meet again at the barrier.
	{"lid_trip_count", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(1) * 4 + get_global_id(0);
    const int lid = get_local_id(1) * 2 + get_local_id(0);
    __local double lm[4];
    double acc = 0.0;
    for (int i = 0; i <= lid * 2; i++) {
        acc += o[gid] * (double)(i + 1);
    }
    lm[lid] = acc;
    barrier(CLK_LOCAL_MEM_FENCE);
    o[gid] = lm[3 - lid] + acc;
}`, ""},
	// Branches, a ternary whose arms differ in type, and short-circuit
	// operators on the local id, with no barrier.
	{"lid_branches", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(1) * 4 + get_global_id(0);
    const int lid = get_local_id(1) * 2 + get_local_id(0);
    double v;
    if (lid % 2 == 0) {
        v = 1.5 + (double)(lid);
    } else {
        v = (lid > 2) ? 5.0 : -1.0;
    }
    int f = (lid > 0 && lid < 3) || lid == 3;
    int g = (lid == 0 || o[gid] > 100.0) && lid != 2;
    double w = ((lid & 1) ? 1 : 2.5f) / 2;
    double u = ((lid & 2) ? 2.5f : 3) * 2;
    o[gid] = v * 2.0 + (double)(f) + (double)(g) * 10.0 + w * 100.0 + u * 1000.0;
}`, ""},
	// Only local id 1 never leaves its loop; its fuel runs out.
	{"fuel_one_item", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(1) * 4 + get_global_id(0);
    const int lid = get_local_id(1) * 2 + get_local_id(0);
    for (int i = 0; lid == 1 || i < 3; i++) {
        o[gid] += 1.0;
    }
}`, "loop iteration budget exhausted"},
	// Local id 3 faults first in program order, local id 1 later in the
	// same segment: local id 1's fault is reported.
	{"fault_order_low_id_late_pc", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(1) * 4 + get_global_id(0);
    const int lid = get_local_id(1) * 2 + get_local_id(0);
    if (lid == 3) {
        o[gid + 100] = 1.0;
    }
    o[gid] = 2.0;
    if (lid == 1) {
        o[gid + 200] = 3.0;
    }
    barrier(CLK_LOCAL_MEM_FENCE);
    o[gid] = 4.0;
}`, "index 201 out of range"},
	// Local id 0 halts, local id 1 waits at the barrier and local id 2
	// faults: the fault wins over the divergence.
	{"fault_beats_halt", `__kernel void k(__global double* o)
{
    const int gid = get_global_id(1) * 4 + get_global_id(0);
    const int lid = get_local_id(1) * 2 + get_local_id(0);
    if (lid == 0) {
        o[gid] = 1.0;
    } else {
        if (lid == 2) {
            o[gid + 100] = 1.0;
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        o[gid] = 2.0;
    }
}`, "index 104 out of range"},
}

// TestLaneDivergence runs the laneCases on the optimized and the raw
// bytecode, which must match, and checks each outcome.
func TestLaneDivergence(t *testing.T) {
	for _, tc := range laneCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runBoth(t, tc.src, 8, laneND)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("unexpected fault: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("got %v, want a fault containing %q", err, tc.want)
			}
		})
	}
}

// TestBarrierDivergenceDetected: items that do not all stop at the same
// barrier fail the launch with ErrBarrierDivergence.
func TestBarrierDivergenceDetected(t *testing.T) {
	for _, tc := range divergentCases {
		if _, err := runBoth(t, tc.src, 8, barrierND); !errors.Is(err, ErrBarrierDivergence) {
			t.Errorf("%s: want ErrBarrierDivergence, got %v", tc.name, err)
		}
	}
}

// TestVMLocalMemoryAndBarrier exercises __local staging with real
// cross-item communication, and the barrier cases.
func TestVMLocalMemoryAndBarrier(t *testing.T) {
	runBoth(t, localBarrierSrc, 8, localBarrierND)
	for _, tc := range barrierCases {
		runBoth(t, tc.src, 8, barrierND)
	}
}

// errorParityCases cover every runtime-fault class, each with a
// substring of its positioned message.
var errorParityCases = []struct {
	name string
	body string
	want string
}{
	{"index_oob", "o[100] = 1.0;", "index 100 out of range [0,8)"},
	{"index_negative", "o[gid - 10] = 1.0;", "out of range"},
	{"div_zero", "int z = 0; o[gid] = (double)(1 / z);", "integer division by zero"},
	{"mod_zero", "int z = 0; o[gid] = (double)(1 % z);", "integer modulo by zero"},
	{"vload_oob", "double2 v = vload2(7, o); vstore2(v, 0, o);", "vload2 offset 7 out of range"},
	{"vstore_oob", "vstore2((double2)(1.0), 7, o);", "vstore2 offset 7 out of range"},
	{"dim_oob", "o[gid] = (double)(get_global_id(2));", "dimension 2 out of range"},
	{"compound_index_oob", "o[8] += 1.0;", "index 8 out of range [0,8)"},
	{"private_const_oob", "double t[4]; float f = t[4]; o[gid] = f;", "index 4 out of range [0,4)"},
	{"int_array", "int t[2]; o[gid] = 1.0;", "integer arrays are not supported"},
	{"array_as_value", "double t[2]; o[gid] = t;", `array "t" used as a value`},
	{"index_non_array", "double x = 1.0; o[gid] = x[0];", `"x" is not an array`},
	{"assign_to_array", "double t[2]; t = 1.0;", `cannot assign to array "t"`},
}

// TestVMErrorParity pins fault behaviour: the optimized and the raw
// bytecode must fail with the same positioned message for every
// runtime-fault class.
func TestVMErrorParity(t *testing.T) {
	for _, tc := range errorParityCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := runBoth(t, tinyKernel(tc.body), 8, oneByFour())
			if err == nil {
				t.Fatalf("expected a fault containing %q, got success", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("fault %q does not contain %q", err, tc.want)
			}
		})
	}
}

// fuelBudgetBody never terminates; runBoth's fuel budget must stop it.
const fuelBudgetBody = "for (int i = 0; i >= 0;) { o[gid] = 1.0; }"

// TestVMFuelBudget: a non-terminating loop faults identically on the
// optimized and the raw bytecode once the back-edge budget runs out,
// instead of hanging.
func TestVMFuelBudget(t *testing.T) {
	_, err := runBoth(t, tinyKernel(fuelBudgetBody), 8, oneByFour())
	if err == nil {
		t.Fatal("expected a loop-budget fault")
	}
	if !strings.Contains(err.Error(), "loop iteration budget exhausted") {
		t.Fatalf("unexpected fault: %v", err)
	}
}

// runGeneratedBoth runs a codegen schedule's generated source on the
// optimized and the raw bytecode at a multi-work-group size, requires
// bit-identical C buffers and returns the optimized C. It returns nil
// (instead of failing) for invalid parameter combinations.
func runGeneratedBoth(t *testing.T, p codegen.Params, seed int64) []float64 {
	t.Helper()
	if err := p.Validate(); err != nil {
		return nil
	}
	run := generatedRunner(t, p, seed)
	opt, err := run(true, 0)
	if err != nil {
		t.Fatalf("%s: run: %v", p.Name(), err)
	}
	raw, rawErr := run(false, 0)
	sameResult(t, p.Name(), opt, err, raw, rawErr)
	return opt
}

// generatedSweep is every algorithm × shared-memory mode × vector width
// with layout pairs cycling through all nine combinations, so each axis
// of the schedule space is covered at multi-work-group sizes. Some
// points are invalid; runGeneratedBoth skips those.
func generatedSweep() []codegen.Params {
	layouts := []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}
	shared := [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}}
	var sweep []codegen.Params
	for _, alg := range codegen.Algorithms {
		for _, sh := range shared {
			for _, vw := range []int{1, 2, 4} {
				idx := len(sweep)
				sweep = append(sweep, codegen.Params{
					Precision: matrix.Double, Algorithm: alg,
					Mwg: 8, Nwg: 16, Kwg: 8,
					MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
					Kwi: 2, VectorWidth: vw,
					SharedA: sh[0], SharedB: sh[1],
					LayoutA: layouts[idx%3], LayoutB: layouts[(idx/3)%3],
				})
			}
		}
	}
	return sweep
}

// TestVMMatchesInterpreterOnGeneratedKernels runs the generated sweep
// on the optimized and the raw bytecode. TestEngineGolden pins each
// kernel's C to the verdict the removed AST interpreter agreed on.
func TestVMMatchesInterpreterOnGeneratedKernels(t *testing.T) {
	ran := 0
	for i, p := range generatedSweep() {
		if testing.Short() && p.VectorWidth == 4 {
			continue
		}
		if runGeneratedBoth(t, p, int64(i+1)) != nil {
			ran++
		}
	}
	if ran < 12 {
		t.Fatalf("only %d valid schedule combinations ran; sweep is too narrow", ran)
	}
}

// TestVMGeneratedPropertyRandomConfigs is the randomized counterpart:
// quick.Check over the schedule space, comparing the optimized and the
// raw bytecode bit-for-bit.
func TestVMGeneratedPropertyRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential property test")
	}
	f := func(algSel, mwiS, nwiS, kwgS, vwS, shSel, stSel, layA, layB uint8, seed int64) bool {
		lay := []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     2, NdimC: 4,
			Kwi:     2,
			SharedA: shSel&1 != 0,
			SharedB: shSel&2 != 0,
			StrideM: stSel&1 != 0,
			StrideN: stSel&2 != 0,
			LayoutA: lay[layA%3],
			LayoutB: lay[layB%3],
		}
		p.Mwg = p.MdimC * (int(mwiS%3) + 1)
		p.Nwg = p.NdimC * []int{2, 4}[nwiS%2]
		p.Kwg = []int{4, 8}[kwgS%2]
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		runGeneratedBoth(t, p, seed)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestLaneArithMatchesScalar holds the lane executor's unrolled float
// arithmetic to the scalar helpers the constant folder uses: for every
// operator and both precisions, laneArith must equal
// round32(base, floatArith(op, x, y)) bit for bit, special values
// included.
func TestLaneArithMatchesScalar(t *testing.T) {
	xs := []float64{0, -0.0, 1, -2.5, 1.0 / 3, 1e300, -1e-310, 3.4e38, math.Inf(1), math.NaN(), 16777217}
	n := len(xs) * len(xs)
	x, y, d := make([]float64, n), make([]float64, n), make([]float64, n)
	act := make([]int32, n)
	for i := range act {
		act[i] = int32(i)
		x[i], y[i] = xs[i/len(xs)], xs[i%len(xs)]
	}
	for _, base := range []BaseType{BaseFloat, BaseDouble} {
		for op := aAdd; op <= aDiv; op++ {
			laneArith(op, base, d, x, y, act)
			for i := range d {
				want := round32(base, floatArith(op, x[i], y[i]))
				if math.Float64bits(d[i]) != math.Float64bits(want) {
					t.Fatalf("%s %v %s %v: lane %v, scalar %v", base, x[i], arithOps[op], y[i], d[i], want)
				}
			}
		}
	}
}
