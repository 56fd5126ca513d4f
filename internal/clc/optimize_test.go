package clc

// Pass-level and differential tests for the bytecode optimizer
// (optimize.go). Every test here runs with optDebugPanic enabled, so a
// panicking pass fails the test loudly instead of silently falling back
// to the unoptimized program — the production recover must never be the
// reason an optimizer test goes green.

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"oclgemm/internal/clsim"
	"oclgemm/internal/codegen"
	"oclgemm/internal/matrix"
)

func withOptDebugPanic(t testing.TB) {
	t.Helper()
	old := optDebugPanic
	optDebugPanic = true
	t.Cleanup(func() { optDebugPanic = old })
}

// disInstrs parses the instruction count from a disassembly header
// ("; N instrs, R regs, A array slots").
func disInstrs(t *testing.T, dis string) int {
	t.Helper()
	var n int
	if _, err := fmt.Sscanf(dis, "; %d instrs", &n); err != nil {
		t.Fatalf("cannot parse disassembly header %q: %v", strings.SplitN(dis, "\n", 2)[0], err)
	}
	return n
}

// benchParams is the committed BenchmarkVM kernel schedule.
func benchParams() codegen.Params {
	return codegen.Params{
		Precision: matrix.Double, Algorithm: codegen.BA,
		Mwg: 16, Nwg: 16, Kwg: 8, MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
	}
}

// TestOptimizerTransformsGeneratedGEMM asserts the individual passes
// actually fire on the canonical generated-GEMM kernel: the inner
// accumulator loop fuses to the multiply-accumulate superinstruction,
// loads fuse into their operations, bounds checks are elided, and the
// instruction stream shrinks substantially.
func TestOptimizerTransformsGeneratedGEMM(t *testing.T) {
	withOptDebugPanic(t)
	p := benchParams()
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := kern.Disassemble(false)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := kern.Disassemble(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"madacc", "loadbin", "const"} {
		if !strings.Contains(opt, want) {
			t.Errorf("optimized stream lacks %q:\n%s", want, opt)
		}
	}
	rawN, optN := disInstrs(t, raw), disInstrs(t, opt)
	if optN*4 >= rawN*3 {
		t.Errorf("optimizer shrank %d instrs only to %d; want at least 25%% reduction", rawN, optN)
	}
	rawChecks, optChecks := strings.Count(raw, "checkidx"), strings.Count(opt, "checkidx")
	if rawChecks == 0 {
		t.Fatalf("raw stream has no checkidx instructions; test is vacuous")
	}
	if optChecks >= rawChecks {
		t.Errorf("bounds-check elision did not fire: raw %d checkidx, optimized %d", rawChecks, optChecks)
	}
	t.Logf("instrs %d -> %d, checkidx %d -> %d", rawN, optN, rawChecks, optChecks)
}

// loopWith returns the pcs [top, end] of p's innermost loop whose body
// holds an op instruction: end is the back-edge opJump to top.
func loopWith(t *testing.T, p *compiledKernel, op opcode) (top, end int) {
	t.Helper()
	top, end = -1, len(p.code)
	for pc, in := range p.code {
		if in.op == opJump && int(in.imm) <= pc && pc-int(in.imm) < end-top &&
			slices.ContainsFunc(p.code[in.imm:pc], func(x instr) bool { return x.op == op }) {
			top, end = int(in.imm), pc
		}
	}
	if top < 0 {
		t.Fatalf("no loop holds a %s:\n%s", op, p.disassemble())
	}
	return top, end
}

// TestOptimizerNumbersRepeatedIndexSums pins value numbering across
// statements: the unrolled inner loop of benchKernel's kernel names
// pwi + 1 in eight index expressions, and its optimized form computes
// the sum once per iteration.
func TestOptimizerNumbersRepeatedIndexSums(t *testing.T) {
	withOptDebugPanic(t)
	kern, raw := rawKernel(t, benchParams())
	p := optimizeKernel(kern, raw)
	top, end := loopWith(t, p, opMadAcc)
	pwi := p.code[end-1].dst // the loop ends "mov pwi = next; jump top"
	// isOne reports whether r holds 1 from the prologue on.
	isOne := func(r int32) bool {
		writes, one := 0, false
		for _, in := range p.code {
			if d, ok := writesReg(&in); ok && d == r {
				writes++
				one = in.op == opConst && p.consts[in.imm].t == intType && p.consts[in.imm].i == 1
			}
		}
		return writes == 1 && one
	}
	sums := 0
	for _, in := range p.code[top:end] {
		if in.op == opBin && in.imm == aAdd && in.a == pwi && isOne(in.b) {
			sums++
		}
	}
	if sums != 1 {
		t.Errorf("inner loop computes pwi + 1 %d times an iteration, want 1:\n%s", sums, p.disassemble())
	}
}

// TestOptimizerHoistsConstantDivisors pins the constant-divisor rule: an
// integer / or % by a constant other than 0 and -1 cannot fault, so a
// loop-invariant one leaves the loop, and its repeats are numbered into
// one instruction.
func TestOptimizerHoistsConstantDivisors(t *testing.T) {
	withOptDebugPanic(t)
	src := `__kernel void k(__global float* a, __global float* b, __global float* o) {
	const int gid = get_global_id(0);
	const int x = gid * 37 + 100;
	for (int i = 0; i < 4; i++) {
		o[gid] += (float)(x / 64 + i) * (float)(x % 64) + (float)(x / 64 - x % 64);
	}
}`
	got := twoWay(t, src, fill32(4, 0), fill32(4, 0), fill32(4, 0.5))
	for gid, v := range got {
		x := gid*37 + 100
		want := float32(0.5)
		for i := range 4 {
			want += float32(float32(x/64+i)*float32(x%64)) + float32(x/64-x%64)
		}
		if v != want {
			t.Errorf("o[%d] = %v, want %v", gid, v, want)
		}
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := prog.Kernel("k")
	if err != nil {
		t.Fatal(err)
	}
	p := kern.bytecodeOptimized()
	top, _ := loopWith(t, p, opJumpF)
	for _, op := range []int64{aDiv, aMod} {
		var at []int
		for pc, in := range p.code {
			if in.op == opBin && in.imm == op {
				at = append(at, pc)
			}
		}
		if len(at) != 1 || at[0] >= top {
			t.Errorf("x %s 64 at pcs %v, want one pc before the loop at %d:\n%s", arithOps[op], at, top, p.disassemble())
		}
	}
}

// twoWay runs src's kernel k(a, b, o) on the optimized and the raw
// bytecode over copies of the buffers, requires bit-identical o, and
// returns the optimized result.
func twoWay[T float32 | float64](t *testing.T, src string, a, b, o []T) []T {
	t.Helper()
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	kern, err := prog.Kernel("k")
	if err != nil {
		t.Fatal(err)
	}
	run := func(optimize bool) []T {
		oc := slices.Clone(o)
		bk, err := kern.Bind(slices.Clone(a), slices.Clone(b), oc)
		if err != nil {
			t.Fatalf("bind: %v", err)
		}
		bk.SetOptimize(optimize)
		q := newQueue()
		q.Workers = 1
		if err := q.Run(bk, oneByFour()); err != nil {
			t.Fatalf("run: %v\n%s", err, src)
		}
		return oc
	}
	opt := run(true)
	sameResult(t, src, opt, nil, run(false), nil)
	return opt
}

// The mad/fma operands: x*y rounds to exactly 1, so the unfused
// x*y + z is exactly 0 while a fused multiply-add keeps the residue.
const (
	eps29 = 1.0 / (1 << 29)
	eps14 = float32(1.0 / (1 << 14))
)

var (
	madX, madY, madZ       = 1 + eps29, 1 - eps29, -1.0
	madX32, madY32, madZ32 = 1 + eps14, 1 - eps14, float32(-1)
)

// madCase is a kernel body over buffers a, b, o of length n. n is
// chosen so the 4 work-items cover every element: scalar bodies write
// o[gid] (n=4), vector bodies write lanes 2*gid/4*gid onward (n=8/16).
type madCase struct {
	name, body string
	n          int
}

var madDoubleCases = []madCase{
	// The accumulate shape lowers to madacc under the optimizer.
	{"double_madacc", "o[gid] = mad(a[gid], b[gid], o[gid]);", 4},
	{"double_fma", "o[gid] = fma(a[gid], b[gid], o[gid]);", 4},
	{"double_literals", "o[gid] = mad(" + strconv.FormatFloat(madX, 'g', -1, 64) + ", " +
		strconv.FormatFloat(madY, 'g', -1, 64) + ", " + strconv.FormatFloat(madZ, 'g', -1, 64) + ");", 4},
	{"double2_vector", "double2 av = vload2(gid, a); double2 bv = vload2(gid, b); double2 cv = vload2(gid, o); vstore2(mad(av, bv, cv), gid, o);", 8},
}

var madFloatCases = []madCase{
	{"float_madacc", "o[gid] = mad(a[gid], b[gid], o[gid]);", 4},
	{"float_fma", "o[gid] = fma(a[gid], b[gid], o[gid]);", 4},
	{"float4_vector", "float4 av = vload4(gid, a); float4 bv = vload4(gid, b); float4 cv = vload4(gid, o); vstore4(mad(av, bv, cv), gid, o);", 16},
}

// madSource wraps body in a kernel k(a, b, o) over elem buffers.
func madSource(elem, body string) string {
	return "__kernel void k(__global " + elem + "* a, __global " + elem + "* b, __global " + elem + "* o)\n{\n" +
		" const int gid = get_global_id(0);\n" + body + "\n}"
}

// TestMadFmaUnfusedContract pins the mad/fma double-rounding contract
// (see the opMad handler comment in vm.go): mad and fma evaluate as a
// rounded multiply followed by a rounded add — never a hardware fused
// multiply-add — at every optimization level,
// across both precisions and vector widths. The operands are chosen so
// a fused evaluation produces different bits, which the test asserts as
// a precondition; the madacc superinstruction (whose uniform-precision
// loops are where Go's compiler could legally contract the expression)
// is explicitly exercised via the accumulate pattern in both
// precisions.
func TestMadFmaUnfusedContract(t *testing.T) {
	withOptDebugPanic(t)
	x, y, z := madX, madY, madZ
	want := float64(x*y) + z // x*y rounds to exactly 1.0 in double, so want == 0
	if fused := math.FMA(x, y, z); math.Float64bits(fused) == math.Float64bits(want) {
		t.Fatal("double operands do not distinguish fused from unfused evaluation")
	}
	x32, y32, z32 := madX32, madY32, madZ32
	want32 := float32(x32*y32) + z32 // x*y rounds to exactly 1.0f, so want32 == 0
	if fused := float32(math.FMA(float64(x32), float64(y32), float64(z32))); math.Float32bits(fused) == math.Float32bits(want32) {
		t.Fatal("float operands do not distinguish fused from unfused evaluation")
	}
	for _, tc := range madDoubleCases {
		t.Run(tc.name, func(t *testing.T) {
			got := twoWay(t, madSource("double", tc.body), fill64(tc.n, x), fill64(tc.n, y), fill64(tc.n, z))
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("o[%d] = %v (bits %#x), want unfused %v", i, got[i], math.Float64bits(got[i]), want)
				}
			}
		})
	}
	for _, tc := range madFloatCases {
		t.Run(tc.name, func(t *testing.T) {
			got := twoWay(t, madSource("float", tc.body), fill32(tc.n, x32), fill32(tc.n, y32), fill32(tc.n, z32))
			for i := range got {
				if math.Float32bits(got[i]) != math.Float32bits(want32) {
					t.Fatalf("o[%d] = %v (bits %#x), want unfused %v", i, got[i], math.Float32bits(got[i]), want32)
				}
			}
		})
	}

	// The accumulate kernels must actually reach the superinstruction,
	// or the contract above tests the unfused handlers only.
	for _, elem := range []string{"double", "float"} {
		prog, err := Compile(madSource(elem, "o[gid] = mad(a[gid], b[gid], o[gid]);"))
		if err != nil {
			t.Fatal(err)
		}
		kern, err := prog.Kernel("k")
		if err != nil {
			t.Fatal(err)
		}
		dis, err := kern.Disassemble(true)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(dis, "madacc") {
			t.Errorf("%s accumulate kernel does not lower to madacc:\n%s", elem, dis)
		}
	}
}

func fill64(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func fill32(n int, v float32) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// generatedRunner compiles a generated schedule once and returns a
// closure that executes it on the optimized or the raw bytecode with a
// fuel budget over deterministic packed inputs, returning the C buffer
// and run error.
func generatedRunner(t *testing.T, p codegen.Params, seed int64) func(optimize bool, fuel int64) ([]float64, error) {
	t.Helper()
	m, n, k := 2*p.Mwg, 2*p.Nwg, 2*p.Kwg
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatalf("%s: generate: %v", p.Name(), err)
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", p.Name(), err, src)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	a := matrix.New[float64](m, k, matrix.RowMajor)
	b := matrix.New[float64](k, n, matrix.RowMajor)
	c := matrix.New[float64](m, n, matrix.RowMajor)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	at := matrix.Pack(a, true, k, m, p.Kwg, p.Mwg, p.LayoutA)
	bp := matrix.Pack(b, false, k, n, p.Kwg, p.Nwg, p.LayoutB)
	nd := clsim.NDRange{
		Global: [2]int{m / p.Mwg * p.MdimC, n / p.Nwg * p.NdimC},
		Local:  [2]int{p.MdimC, p.NdimC},
	}
	return func(optimize bool, fuel int64) ([]float64, error) {
		cc := c.Clone()
		bound, err := kern.Bind(m, n, k, 1.5, -0.75, at.Data, bp.Data, cc.Data)
		if err != nil {
			t.Fatalf("%s: bind: %v", p.Name(), err)
		}
		bound.SetOptimize(optimize)
		bound.SetFuel(fuel)
		q := newQueue()
		q.Workers = 1
		return cc.Data, q.Run(bound, nd)
	}
}

// fuelParityParams is the generated schedule whose minimal fuel
// TestOptimizerFuelParity and the engine golden pin.
var fuelParityParams = codegen.Params{
	Precision: matrix.Double, Algorithm: codegen.BA,
	Mwg: 8, Nwg: 8, Kwg: 4, MdimC: 4, NdimC: 4, MdimA: 4, NdimB: 4,
	Kwi: 2, VectorWidth: 1, SharedA: true, SharedB: true,
	LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutCBL,
}

// minFuel binary-searches the smallest back-edge budget at which run
// completes on the optimized or the raw bytecode.
func minFuel(t *testing.T, run func(optimize bool, fuel int64) ([]float64, error), optimize bool) int64 {
	t.Helper()
	const ceiling = int64(1 << 20)
	if _, err := run(optimize, ceiling); err != nil {
		t.Fatalf("kernel faults even at fuel ceiling: %v", err)
	}
	lo, hi := int64(1), ceiling // run succeeds at hi
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, err := run(optimize, mid); err != nil {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestOptimizerFuelParity pins structural fuel accounting: the minimal
// back-edge budget at which a generated kernel completes is identical
// with the optimizer on and off, and one unit below that budget both
// programs fault with the same positioned message. The optimizer never
// adds or removes opJump instructions, so this must hold exactly, not
// approximately. TestEngineGolden pins the budget itself.
func TestOptimizerFuelParity(t *testing.T) {
	if testing.Short() {
		t.Skip("fuel threshold search")
	}
	withOptDebugPanic(t)
	run := generatedRunner(t, fuelParityParams, 97)
	opt, raw := minFuel(t, run, true), minFuel(t, run, false)
	if opt != raw {
		t.Fatalf("fuel thresholds diverge: optimized %d, unoptimized %d", opt, raw)
	}
	t.Logf("minimal fuel %d with the optimizer on and off", opt)
	_, errOpt := run(true, opt-1)
	_, errRaw := run(false, opt-1)
	if errOpt == nil || errRaw == nil {
		t.Fatalf("expected faults one below threshold: opt=%v raw=%v", errOpt, errRaw)
	}
	if errOpt.Error() != errRaw.Error() {
		t.Fatalf("fault messages diverge one below threshold:\n opt: %v\n raw: %v", errOpt, errRaw)
	}
}

// TestOptimizerDifferentialRandomConfigs is the satellite quick.Check
// property: over random generated-kernel schedules, SetOptimize(false)
// and the optimized program produce Float64bits-identical outputs with
// ample fuel, and byte-identical positioned fault strings when starved.
func TestOptimizerDifferentialRandomConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("differential property test")
	}
	withOptDebugPanic(t)
	f := func(algSel, mwgS, nwgS, kwgS, vwS, shSel, layA, layB uint8, seed int64) bool {
		lay := []matrix.Layout{matrix.LayoutRowMajor, matrix.LayoutCBL, matrix.LayoutRBL}
		p := codegen.Params{
			Precision: matrix.Double,
			Algorithm: codegen.Algorithms[algSel%3],
			MdimC:     4, NdimC: 4,
			Kwi:     2,
			SharedA: shSel&1 != 0,
			SharedB: shSel&2 != 0,
			LayoutA: lay[layA%3],
			LayoutB: lay[layB%3],
		}
		p.Mwg = []int{8, 16}[mwgS%2]
		p.Nwg = []int{8, 16}[nwgS%2]
		p.Kwg = []int{4, 8}[kwgS%2]
		p.VectorWidth = []int{1, 2}[vwS%2]
		p.MdimA = p.MdimC
		p.NdimB = p.NdimC
		if p.Algorithm == codegen.DB && !p.UsesLocalMemory() {
			p.SharedB = true
		}
		if p.Validate() != nil {
			return true
		}
		run := generatedRunner(t, p, seed)
		opt, errOpt := run(true, 1<<22)
		raw, errRaw := run(false, 1<<22)
		if errOpt != nil || errRaw != nil {
			t.Errorf("%s: unexpected fault with ample fuel: opt=%v raw=%v", p.Name(), errOpt, errRaw)
			return false
		}
		for i := range opt {
			if math.Float64bits(opt[i]) != math.Float64bits(raw[i]) {
				t.Errorf("%s: optimizer changed C[%d]: opt=%v raw=%v", p.Name(), i, opt[i], raw[i])
				return false
			}
		}
		_, starvedOpt := run(true, 8)
		_, starvedRaw := run(false, 8)
		if starvedOpt == nil || starvedRaw == nil {
			t.Errorf("%s: expected fuel faults at budget 8: opt=%v raw=%v", p.Name(), starvedOpt, starvedRaw)
			return false
		}
		if starvedOpt.Error() != starvedRaw.Error() {
			t.Errorf("%s: starved fault strings diverge:\n opt: %v\n raw: %v", p.Name(), starvedOpt, starvedRaw)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// walkLiveness is the reference for the optimizer's block liveness:
// per-instruction live-out sets iterated to their fixpoint over single
// instructions, as the optimizer computed them before it had blocks.
func walkLiveness(o *optimizer) [][]uint64 {
	n, words := len(o.code), (o.nreg+63)/64
	in, out := make([][]uint64, n+1), make([][]uint64, n)
	for pc := range in {
		in[pc] = make([]uint64, words)
	}
	for changed := true; changed; {
		changed = false
		for pc := n - 1; pc >= 0; pc-- {
			oi := &o.code[pc]
			succ := []int{pc + 1}
			if !oi.dead {
				switch oi.in.op {
				case opJump:
					succ = []int{int(oi.in.imm)}
				case opJumpF, opJumpT:
					succ = append(succ, int(oi.in.imm))
				case opHalt, opErr:
					succ = nil
				}
			}
			o := make([]uint64, words)
			for _, s := range succ {
				for w := range o {
					o[w] |= in[s][w]
				}
			}
			out[pc] = o
			live := slices.Clone(o)
			if !oi.dead {
				if d, ok := writesReg(&oi.in); ok {
					live[d/64] &^= 1 << (uint(d) % 64)
				}
				instReads(&oi.in, func(r int32) { live[r/64] |= 1 << (uint(r) % 64) })
			}
			if !slices.Equal(live, in[pc]) {
				in[pc], changed = live, true
			}
		}
	}
	return out
}

// TestBlockLiveness holds the block liveness that DCE, fusion and
// renumbering read to walkLiveness on the benchmark kernel, through the
// pipeline's own passes: after DCE, every pc's live-out set, walked
// backward from its block's live-out set, must equal the reference;
// after fusion and the bounds lowering, which renumbering reads the
// same sets for, it must still cover the reference.
func TestBlockLiveness(t *testing.T) {
	withOptDebugPanic(t)
	p := benchParams()
	src, err := p.GenerateSource()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		t.Fatal(err)
	}
	if err := kern.CompileBytecode(); err != nil {
		t.Fatal(err)
	}
	o := newOptimizer(kern, kern.bytecode())
	o.analyze()
	o.convertElim()
	o.propagate()
	o.checkElim()
	if !o.licm() {
		t.Fatal("licm hoisted nothing out of the benchmark kernel")
	}
	o.analyze()
	o.propagate()
	o.liveness()
	o.dce()
	check := func(stage string, exact bool) {
		t.Helper()
		want := walkLiveness(o)
		cur := make([]uint64, o.words)
		for b := 0; b < len(o.starts)-1; b++ {
			o.liveOut(b, cur)
			for pc := int(o.starts[b+1]) - 1; pc >= int(o.starts[b]); pc-- {
				for w := range cur {
					if exact && cur[w] != want[pc][w] || cur[w]&want[pc][w] != want[pc][w] {
						t.Fatalf("%s: pc %d: live-out word %d is %#x, reference %#x", stage, pc, w, cur[w], want[pc][w])
					}
				}
				if o.back(pc, cur) {
					t.Fatalf("%s: pc %d is a dead write DCE left", stage, pc)
				}
			}
		}
	}
	check("dce", true)
	o.fuse()
	o.elideBounds()
	check("fuse", false)
	t.Logf("%d instructions in %d blocks, %d liveness sweeps", len(o.code), len(o.starts)-1, o.sweeps)
}

// optimizeBenchParams are BenchmarkOptimizeKernel's generated kernels,
// of about 0.8k, 1.3k and 3.4k raw instructions.
var optimizeBenchParams = []codegen.Params{
	{Precision: matrix.Single, Algorithm: codegen.PL,
		Mwg: 64, Nwg: 64, Kwg: 16, MdimC: 16, NdimC: 16, MdimA: 32, NdimB: 16,
		Kwi: 4, VectorWidth: 4, SharedA: true,
		LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutRBL},
	{Precision: matrix.Single, Algorithm: codegen.DB,
		Mwg: 64, Nwg: 32, Kwg: 32, MdimC: 8, NdimC: 8, MdimA: 4, NdimB: 4,
		Kwi: 2, VectorWidth: 4, StrideM: true, StrideN: true, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutCBL, LayoutB: matrix.LayoutRBL},
	{Precision: matrix.Single, Algorithm: codegen.DB,
		Mwg: 32, Nwg: 64, Kwg: 32, MdimC: 8, NdimC: 8, MdimA: 16, NdimB: 8,
		Kwi: 8, VectorWidth: 4, SharedA: true, SharedB: true,
		LayoutA: matrix.LayoutRBL, LayoutB: matrix.LayoutRBL},
}

// rawKernel compiles p's generated kernel to raw bytecode.
func rawKernel(tb testing.TB, p codegen.Params) (*KernelDecl, *compiledKernel) {
	tb.Helper()
	src, err := p.GenerateSource()
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := Compile(src)
	if err != nil {
		tb.Fatal(err)
	}
	kern, err := prog.Kernel(codegen.KernelName)
	if err != nil {
		tb.Fatal(err)
	}
	if err := kern.CompileBytecode(); err != nil {
		tb.Fatal(err)
	}
	return kern, kern.bytecode()
}

// BenchmarkOptimizeKernel times the optimizer alone on the
// optimizeBenchParams kernels and reports raw instructions optimized
// per second, so how the pass pipeline scales with kernel size is
// visible on its own layer.
func BenchmarkOptimizeKernel(b *testing.B) {
	withOptDebugPanic(b)
	for _, p := range optimizeBenchParams {
		kern, raw := rawKernel(b, p)
		b.Run(fmt.Sprintf("raw%d", len(raw.code)), func(b *testing.B) {
			for b.Loop() {
				optimizeKernel(kern, raw)
			}
			b.ReportMetric(float64(len(raw.code))*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// TestOptimizeKernelAllocs bounds the bytes one optimizeKernel call
// allocates on the 3.4k-instruction optimizeBenchParams kernel: the
// working code and the tables, each sized once per kernel, and the
// optimized program. The bound may only tighten.
func TestOptimizeKernelAllocs(t *testing.T) {
	withOptDebugPanic(t)
	kern, raw := rawKernel(t, optimizeBenchParams[2])
	optimizeKernel(kern, raw)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	optimizeKernel(kern, raw)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	const limit = 750_000
	t.Logf("optimizing %d raw instructions allocated %d bytes; bound %d", len(raw.code), got, limit)
	if got > limit {
		t.Errorf("optimizeKernel allocated %d bytes, want <= %d", got, limit)
	}
}
