package clc

// The bytecode VM: a lane executor over a compiledKernel. A work-group
// runs its items in lockstep between barriers. Registers live in
// structure-of-arrays lane storage (one typed slot per register per
// item, vector lanes flattened), so each instruction is decoded and
// type-dispatched once and then runs a tight loop over the active
// items. A branch whose condition differs between items narrows the
// active set; the items rejoin where the compiler's structured joins
// meet, because the lowest waiting pc always runs first. Faults are
// positioned *Error values recorded against their item, using the
// per-instruction ex table for positions at zero cost off the error
// path.

import (
	"errors"
	"fmt"
	"math"

	"oclgemm/internal/clsim"
)

// ErrBarrierDivergence reports a work-group whose items did not all
// stop at the same barrier: some reached a barrier while another
// finished, or items waited at different barriers (undefined behaviour
// in OpenCL; detected and reported here).
var ErrBarrierDivergence = errors.New("clc: work-items diverged at a barrier")

// kernelArg is one bound argument: a scalar value, or the array
// wrapping a __global buffer.
type kernelArg struct {
	val value
	arr laneArr
}

// Bind attaches argument values to a kernel, producing a
// clsim.GroupKernel. Supported argument kinds: int, float32,
// float64 for scalar parameters; []float32 and []float64 for __global
// pointer parameters. It compiles the kernel to bytecode (once per
// declaration) and returns a compile failure as a *Error.
func (k *KernelDecl) Bind(args ...any) (*BoundKernel, error) {
	if len(args) != len(k.Params) {
		return nil, fmt.Errorf("clc: kernel %s takes %d arguments, got %d", k.Name, len(k.Params), len(args))
	}
	b := &BoundKernel{decl: k, args: make([]kernelArg, len(args))}
	for i, p := range k.Params {
		v := &b.args[i]
		switch a := args[i].(type) {
		case int:
			if p.Pointer || !p.Type.IsInt() {
				return nil, fmt.Errorf("clc: argument %d: int given for parameter %q (%s)", i, p.Name, p.Type)
			}
			v.val = intVal(int64(a))
		case float32:
			if p.Pointer || p.Type.Base != BaseFloat {
				return nil, fmt.Errorf("clc: argument %d: float32 given for parameter %q (%s)", i, p.Name, p.Type)
			}
			v.val = floatVal(BaseFloat, 1)
			v.val.f[0] = float64(a)
		case float64:
			if p.Pointer || p.Type.Base != BaseDouble {
				return nil, fmt.Errorf("clc: argument %d: float64 given for parameter %q (%s)", i, p.Name, p.Type)
			}
			v.val = floatVal(BaseDouble, 1)
			v.val.f[0] = a
		case []float32:
			if !p.Pointer || p.Type.Base != BaseFloat {
				return nil, fmt.Errorf("clc: argument %d: []float32 given for parameter %q", i, p.Name)
			}
			v.arr = laneArr{t: typeFloatScalar, f32: a, elems: len(a)}
		case []float64:
			if !p.Pointer || p.Type.Base != BaseDouble {
				return nil, fmt.Errorf("clc: argument %d: []float64 given for parameter %q", i, p.Name)
			}
			v.arr = laneArr{t: typeDoubleScalar, f64: a, elems: len(a)}
		default:
			return nil, fmt.Errorf("clc: argument %d: unsupported type %T", i, args[i])
		}
	}
	if err := k.CompileBytecode(); err != nil {
		return nil, err
	}
	// Top-level __local declarations (all arrays; the checker rejects
	// scalars) are work-group state, set up by RunGroup.
	for _, s := range k.Body.Stmts {
		if d, ok := s.(*Decl); ok && d.Space == LocalMem {
			n, err := constFold(d.ArrayLen)
			if err != nil {
				return nil, err
			}
			b.locals = append(b.locals, arrayDef{t: d.Type, total: int(n) * d.Type.Lanes})
		}
	}
	b.prog = k.bytecode()
	b.progOpt = k.bytecodeOptimized()
	b.noOpt = clcDisableOpt()
	return b, nil
}

// BoundKernel is a kernel with bound arguments, runnable on clsim.
type BoundKernel struct {
	decl   *KernelDecl
	args   []kernelArg
	locals []arrayDef // top-level __local arrays, in hoisting order

	// prog is the compiled bytecode; progOpt is the optimized program
	// (== prog when the optimizer made no changes).
	prog    *compiledKernel
	progOpt *compiledKernel
	noOpt   bool
	fuel    int64
}

// Name implements clsim.GroupKernel.
func (b *BoundKernel) Name() string { return b.decl.Name }

// SetOptimize selects between the optimized and the straight-from-the-
// compiler bytecode (the differential escape hatch). The default is
// optimized unless CLC_DISABLE_OPT is set in the environment. Both
// programs are observationally identical: bit-equal outputs, byte-equal
// fault strings, identical fuel accounting.
func (b *BoundKernel) SetOptimize(on bool) { b.noOpt = !on }

// SetFuel bounds loop back-edges per work-item: once a work-item
// completes n loop iterations (summed across all loops) the run faults
// with a budget error instead of spinning forever. Zero or negative
// disables the bound. The optimized and raw programs count identically,
// so a fuel fault is deterministic.
func (b *BoundKernel) SetFuel(n int64) { b.fuel = n }

// errLoopBudget is the fault raised when SetFuel's budget runs out.
var errLoopBudget = &Error{Msg: "loop iteration budget exhausted"}

// RunGroup implements clsim.GroupKernel on the optimized bytecode, or
// on the raw bytecode when SetOptimize(false). It sets up the group's
// __local arrays, then runs barrier segments: every item runs until it
// halts or stops at a barrier. A segment must end with every item
// halted or every item stopped at the same barrier, else the group
// panics with ErrBarrierDivergence; at a common barrier every item
// arrives and then every item resumes. When items fault, the fault of
// the lowest linear local id (ly outer, lx inner) is reported, ahead of
// any divergence: the fault a sweep running the items one by one, in
// linear order, would meet first.
//
// Lane storage is kept in the worker's clsim scratch slot, so the
// groups one worker runs in a launch share it.
func (b *BoundKernel) RunGroup(g *clsim.Group) {
	p := b.progOpt
	if b.noOpt {
		p = b.prog
	}
	l := lanesFor(g, p)
	l.start(b, g)
	for {
		l.segment(g)
		if l.fault != nil {
			panic(l.fault)
		}
		halted, at := 0, int32(-1)
		for i, st := range l.st {
			if st == stHalted {
				halted++
			} else if at < 0 {
				at = l.pc[i]
			} else if l.pc[i] != at {
				panic(ErrBarrierDivergence)
			}
		}
		if halted == l.n {
			return
		}
		if halted > 0 {
			panic(ErrBarrierDivergence)
		}
		g.Arrive(l.n)
		for i := range l.st {
			l.st[i] = stReady
		}
	}
}

// laneArr backs one array slot for a group: a __global buffer or a
// __local array shared by every item (stride 0), or a __private array
// with one stride-long segment per item. Exactly one of f32/f64 is set.
type laneArr struct {
	t      Type // element type
	f32    []float32
	f64    []float64
	elems  int // elements each item sees
	stride int // payload offset between consecutive items' segments
}

// Item states.
const (
	stReady   uint8 = iota // waiting to run from pc
	stActive               // in the running active set
	stBarrier              // stopped at a barrier; pc is the resume pc
	stHalted
	stDropped // faulted, or past a lower item's fault
)

// lanes is a work-group's execution state. Register r holds one type
// for the whole group (rt[r]) unless items took paths that left
// different types in it; then mixed[r] is set and ity[r] holds a type
// per item. Integer payloads sit at iv[r*n+i]; float lane k of register
// r sits at fv[(foff[r]+k)*n+i].
type lanes struct {
	p     *compiledKernel
	n, nx int

	rt     []Type
	mixed  []bool
	nmixed int // registers now mixed
	ity    [][]Type
	iv     []int64
	fv     []float64
	arrs   []laneArr
	tmp    []float64

	pc     []int32 // per item
	st     []uint8
	fuel   []int64
	lid    [2][]int
	act    []int32
	fuelOn bool

	// ready is the lowest pc an item waits at in the segment; faultID
	// the lowest linear id that faulted, whose fault is fault.
	ready   int
	faultID int32
	fault   error
}

// Scratch registers nreg and nreg+1 hold fused instructions'
// intermediates; they are dead between instructions.
func (l *lanes) s1() int32 { return int32(l.p.nreg) }
func (l *lanes) s2() int32 { return int32(l.p.nreg + 1) }

// lanesFor returns the worker's lane storage for p at g's group shape,
// allocating it on the worker's first group.
func lanesFor(g *clsim.Group, p *compiledKernel) *lanes {
	slot := g.Scratch()
	n, nx := g.Size(), g.LocalSize(0)
	if l, ok := (*slot).(*lanes); ok && l.p == p && l.n == n && l.nx == nx {
		return l
	}
	nr := p.nreg + 2
	l := &lanes{
		p: p, n: n, nx: nx,
		rt:    make([]Type, nr),
		mixed: make([]bool, nr),
		ity:   make([][]Type, nr),
		iv:    make([]int64, nr*n),
		fv:    make([]float64, p.rows*n),
		arrs:  make([]laneArr, p.narr),
		tmp:   make([]float64, n),
		pc:    make([]int32, n),
		st:    make([]uint8, n),
		fuel:  make([]int64, n),
		act:   make([]int32, n),
	}
	l.lid[0], l.lid[1] = make([]int, n), make([]int, n)
	for i := 0; i < n; i++ {
		l.lid[0][i], l.lid[1][i] = i%nx, i/nx
	}
	*slot = l
	return l
}

// start readies every item to run b's program from the top: scalar
// arguments are copied into their registers (OpenCL argument
// semantics), buffers and zeroed __local arrays are attached through
// the group's local-memory accounting.
func (l *lanes) start(b *BoundKernel, g *clsim.Group) {
	p := l.p
	for i := range b.args {
		if r := p.paramRegs[i]; r >= 0 {
			v := &b.args[i].val
			l.rt[r] = v.t
			if v.t.IsInt() {
				fill(l.ints(r), v.i)
			} else {
				fill(l.flt(r, 0), v.f[0])
			}
		} else {
			l.arrs[p.paramArrs[i]] = b.args[i].arr
		}
	}
	for ord, slot := range p.localSlots {
		d := b.locals[ord]
		a := &l.arrs[slot]
		if d.t.Base == BaseDouble {
			g.TakeLocal(8 * d.total)
			if len(a.f64) != d.total {
				*a = laneArr{t: d.t, f64: make([]float64, d.total)}
			}
			clear(a.f64)
		} else {
			g.TakeLocal(4 * d.total)
			if len(a.f32) != d.total {
				*a = laneArr{t: d.t, f32: make([]float32, d.total)}
			}
			clear(a.f32)
		}
		a.elems = d.total / d.t.Lanes
	}
	for i := range l.st {
		l.pc[i], l.st[i], l.fuel[i] = 0, stReady, b.fuel
	}
	// Every item writes a register before it reads it, so the types the
	// previous group left are dead.
	clear(l.mixed)
	l.nmixed = 0
	l.fuelOn = b.fuel > 0
	l.faultID, l.fault = int32(l.n), nil
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

func (l *lanes) ints(r int32) []int64 {
	o := int(r) * l.n
	return l.iv[o : o+l.n]
}

func (l *lanes) flt(r int32, lane int) []float64 {
	o := (int(l.p.foff[r]) + lane) * l.n
	return l.fv[o : o+l.n]
}

// ty returns register r's type for the items of act, which agree on
// it (see agree).
func (l *lanes) ty(r int32, act []int32) Type {
	if l.mixed[r] && len(act) > 0 {
		return l.ity[r][act[0]]
	}
	return l.rt[r]
}

// agree reports whether the items of act hold one type in each register
// the instruction reads.
func (l *lanes) agree(in *instr, act []int32) bool {
	ok := true
	instReads(in, func(r int32) {
		if ts := l.ity[r]; l.mixed[r] {
			for _, i := range act[1:] {
				ok = ok && ts[i] == ts[act[0]]
			}
		}
	})
	return ok
}

// setTyp records that the items of act now hold a t-typed value in r.
// Items outside act keep their own type, so a write by part of the
// group that changes the type makes r mixed. Scratch registers are dead
// between instructions and never mix.
func (l *lanes) setTyp(r int32, t Type, act []int32) {
	if len(act) == l.n && !l.mixed[r] {
		l.rt[r] = t
		return
	}
	l.setTypSlow(r, t, act)
}

func (l *lanes) setTypSlow(r int32, t Type, act []int32) {
	if len(act) == l.n || int(r) >= l.p.nreg {
		if l.mixed[r] {
			l.mixed[r] = false
			l.nmixed--
		}
		l.rt[r] = t
		return
	}
	if !l.mixed[r] {
		if l.rt[r] == t {
			return
		}
		if l.ity[r] == nil {
			l.ity[r] = make([]Type, l.n)
		}
		fill(l.ity[r], l.rt[r])
		l.mixed[r] = true
		l.nmixed++
	}
	ts := l.ity[r]
	for _, i := range act {
		ts[i] = t
	}
}

// src returns lane k of register r as float64s by item, as value.lane
// does: a scalar broadcasts lane 0 and an integer converts (through
// l.tmp, so at most one operand at a time may be an integer).
func (l *lanes) src(r int32, k int, act []int32) []float64 {
	t := l.ty(r, act)
	if t.IsInt() {
		x, buf := l.ints(r), l.tmp
		for _, i := range act {
			buf[i] = float64(x[i])
		}
		return buf
	}
	if t.Lanes == 1 {
		k = 0
	}
	return l.flt(r, k)
}

// truth reports item i's register r as a condition.
func (l *lanes) truth(r int32, i int32) bool {
	t := l.rt[r]
	if l.mixed[r] {
		t = l.ity[r][i]
	}
	if t.IsInt() {
		return l.iv[int(r)*l.n+int(i)] != 0
	}
	return l.fv[int(l.p.foff[r])*l.n+int(i)] != 0
}

// asInts returns scalar register r coerced to integers, as
// value.asInt does.
func (l *lanes) asInts(r int32, act []int32) []int64 {
	if l.ty(r, act).IsInt() {
		return l.ints(r)
	}
	x, buf := l.flt(r, 0), l.ints(l.s2())
	for _, i := range act {
		buf[i] = int64(x[i])
	}
	return buf
}

// fail records item i's fault; the lowest linear id wins.
func (l *lanes) fail(i int32, err error) {
	if i < l.faultID {
		l.faultID, l.fault = i, err
	}
}

// segment runs the items until every one has halted, stopped at a
// barrier or dropped out, always resuming the items that wait at the
// lowest pc together.
func (l *lanes) segment(g *clsim.Group) {
	for {
		pc := math.MaxInt
		for i, st := range l.st {
			if st != stReady {
				continue
			}
			if int32(i) >= l.faultID {
				l.st[i] = stDropped
			} else {
				pc = min(pc, int(l.pc[i]))
			}
		}
		if pc == math.MaxInt {
			return
		}
		act := l.act[:0]
		l.ready = math.MaxInt
		for i, st := range l.st {
			if st != stReady {
				continue
			}
			if int(l.pc[i]) == pc {
				act = append(act, int32(i))
				l.st[i] = stActive
			} else {
				l.ready = min(l.ready, int(l.pc[i]))
			}
		}
		l.exec(g, pc, act)
	}
}

// park leaves the items of act waiting at pc in state st.
func (l *lanes) park(act []int32, pc int, st uint8) {
	for _, i := range act {
		l.pc[i], l.st[i] = int32(pc), st
	}
}

// exec runs the active items act from pc until they stop, halt, fault
// or reach the pc where other items wait.
func (l *lanes) exec(g *clsim.Group, pc int, act []int32) {
	code := l.p.code
	for {
		if pc >= l.ready {
			l.park(act, pc, stReady)
			return
		}
		in := &code[pc]
		switch in.op {
		case opJump:
			// Loop back-edges are the only backward jumps; charge fuel
			// once per completed loop iteration.
			if int(in.imm) <= pc && l.fuelOn {
				if act = l.burn(act); len(act) == 0 {
					return
				}
			}
			pc = int(in.imm)
			continue
		case opJumpF, opJumpT:
			pc, act = l.branch(in, pc, act)
			continue
		case opBarrier:
			l.park(act, pc+1, stBarrier)
			return
		case opHalt:
			l.park(act, pc, stHalted)
			return
		default:
			if k := l.step(g, pc, in, act); k < len(act) {
				l.park(act[k:], pc, stDropped)
				if act = act[:k]; k == 0 {
					return
				}
			}
		}
		pc++
	}
}

// burn charges one back-edge of fuel to each item of act and returns
// the items that may go on.
func (l *lanes) burn(act []int32) []int32 {
	for k, i := range act {
		if l.fuel[i]--; l.fuel[i] == 0 {
			l.fail(i, errLoopBudget)
			l.park(act[k:], 0, stDropped)
			return act[:k]
		}
	}
	return act
}

// branch runs a conditional jump: when the items disagree, those bound
// for the higher pc wait there and the rest go on.
func (l *lanes) branch(in *instr, pc int, act []int32) (int, []int32) {
	jumpIf := in.op == opJumpT
	jumps := 0
	if t := l.rt[in.a]; !l.mixed[in.a] && t.IsInt() {
		// The common case: a comparison result.
		x := l.ints(in.a)
		for _, i := range act {
			if (x[i] != 0) == jumpIf {
				jumps++
			}
		}
	} else {
		for _, i := range act {
			if l.truth(in.a, i) == jumpIf {
				jumps++
			}
		}
	}
	target := int(in.imm)
	switch jumps {
	case 0:
		return pc + 1, act
	case len(act):
		return target, act
	}
	lo, hi := pc+1, target
	goHi := jumpIf // items whose truth sends them to hi
	if hi < lo {
		lo, hi, goHi = hi, lo, !jumpIf
	}
	kept := act[:0]
	for _, i := range act {
		if l.truth(in.a, i) == goHi {
			l.pc[i], l.st[i] = int32(hi), stReady
		} else {
			kept = append(kept, i)
		}
	}
	l.ready = min(l.ready, hi)
	return lo, kept
}

// step runs the non-control instruction at pc for the items of act and
// returns how many completed it: fewer than len(act) when act[k]
// faulted (the fault is recorded; later items drop out). Items that
// disagree on an operand's type run it one by one.
func (l *lanes) step(g *clsim.Group, pc int, in *instr, act []int32) int {
	if l.nmixed > 0 && len(act) > 1 && !l.agree(in, act) {
		for k := range act {
			if l.step(g, pc, in, act[k:k+1]) == 0 {
				return k
			}
		}
		return len(act)
	}
	p := l.p
	n := len(act)
	switch in.op {
	case opConst:
		c := &p.consts[in.imm]
		l.setTyp(in.dst, c.t, act)
		if c.t.IsInt() {
			d := l.ints(in.dst)
			for _, i := range act {
				d[i] = c.i
			}
			return n
		}
		for k := 0; k < c.t.Lanes; k++ {
			d, x := l.flt(in.dst, k), c.f[k]
			for _, i := range act {
				d[i] = x
			}
		}
	case opMov:
		l.move(in.dst, in.a, l.ty(in.a, act), act)
	case opBool, opNot:
		want := in.op == opBool
		d := l.ints(in.dst)
		for _, i := range act {
			d[i] = b2i(l.truth(in.a, i) == want)
		}
		l.setTyp(in.dst, intType, act)
	case opBitNot:
		x, d := l.asInts(in.a, act), l.ints(in.dst)
		for _, i := range act {
			d[i] = ^x[i]
		}
		l.setTyp(in.dst, intType, act)
	case opBin:
		return l.bin(in.imm, in.dst, in.a, in.b, act, p.ex[pc])
	case opNeg:
		t := l.ty(in.a, act)
		l.setTyp(in.dst, t, act)
		if t.IsInt() {
			x, d := l.ints(in.a), l.ints(in.dst)
			for _, i := range act {
				d[i] = -x[i]
			}
			return n
		}
		for k := 0; k < t.Lanes; k++ {
			x, d := l.flt(in.a, k), l.flt(in.dst, k)
			for _, i := range act {
				d[i] = -x[i]
			}
		}
	case opConvert:
		return l.convert(in.dst, in.a, p.types[in.imm], act, p.ex[pc])
	case opConvertDyn:
		return l.convert(in.dst, in.a, p.slotT[in.b], act, p.ex[pc])
	case opVecCtor:
		// Source registers are distinct temps, never dst, so writing
		// lanes in order is alias-safe.
		to := p.types[in.imm]
		for k := int32(0); k < in.c; k++ {
			x, d := l.src(in.a+k, 0, act), l.flt(in.dst, int(k))
			for _, i := range act {
				d[i] = round32(to.Base, x[i])
			}
		}
		l.setTyp(in.dst, to, act)
	case opWI:
		x, d := l.asInts(in.a, act), l.ints(in.dst)
		for k, i := range act {
			dim := x[i]
			if dim < 0 || dim > 1 {
				l.fail(i, errAt(p.ex[pc], "dimension %d out of range (2-D NDRange)", dim))
				return k
			}
			var v int
			switch in.imm {
			case wiGlobalID:
				v = g.GlobalID(int(dim), l.lid[dim][i])
			case wiLocalID:
				v = l.lid[dim][i]
			case wiGroupID:
				v = g.ID(int(dim))
			case wiLocalSize:
				v = g.LocalSize(int(dim))
			case wiGlobalSize:
				v = g.NumGroups(int(dim)) * g.LocalSize(int(dim))
			default:
				v = g.NumGroups(int(dim))
			}
			d[i] = int64(v)
		}
		l.setTyp(in.dst, intType, act)
	case opMad:
		// Contract: mad(a,b,c)/fma(a,b,c) is NOT fused — it lowers to
		// two separate binary operations (multiply, then add) through a
		// scratch register, each rounding to the operands' promoted
		// precision. Double rounding is therefore part of the semantics
		// the engine golden pins bit-for-bit; no handler may replace
		// this with a hardware FMA. ex2 carries the multiply's fault
		// position (it differs from ex only when the optimizer fused a
		// separate mul+add pair into this opMad).
		if l.ty(in.a, act).IsInt() && l.ty(in.b, act).IsInt() && l.ty(in.c, act).IsInt() {
			// Fused address arithmetic cannot fault.
			x, y, z, d := l.ints(in.a), l.ints(in.b), l.ints(in.c), l.ints(in.dst)
			for _, i := range act {
				d[i] = x[i]*y[i] + z[i]
			}
			l.setTyp(in.dst, intType, act)
			return n
		}
		s := l.s1()
		if k := l.bin(aMul, s, in.a, in.b, act, p.ex2[pc]); k < n {
			return k
		}
		return l.bin(aAdd, in.dst, s, in.c, act, p.ex[pc])
	case opMin, opMax:
		ta, tb := l.ty(in.a, act), l.ty(in.b, act)
		if ta.IsInt() && tb.IsInt() {
			x, y, d := l.ints(in.a), l.ints(in.b), l.ints(in.dst)
			for _, i := range act {
				if in.op == opMin {
					d[i] = min(x[i], y[i])
				} else {
					d[i] = max(x[i], y[i])
				}
			}
			l.setTyp(in.dst, intType, act)
			return n
		}
		// Float min/max returns a double scalar of lane 0 regardless
		// of operand types; the golden pins the quirk.
		x, y, d := l.src(in.a, 0, act), l.src(in.b, 0, act), l.flt(in.dst, 0)
		for _, i := range act {
			if in.op == opMin {
				d[i] = math.Min(x[i], y[i])
			} else {
				d[i] = math.Max(x[i], y[i])
			}
		}
		l.setTyp(in.dst, typeDoubleScalar, act)
	case opLoad:
		return l.load(in.dst, in.a, l.asInts(in.b, act), act, p.ex[pc])
	case opLoadD, opLoadF:
		// Proven scalar element and integer index: one pass, no type
		// dispatch.
		a, idx, d := &l.arrs[in.a], l.ints(in.b), l.flt(in.dst, 0)
		l.setTyp(in.dst, a.t, act)
		for k, i := range act {
			e := idx[i]
			if uint64(e) >= uint64(a.elems) {
				return k + l.inBounds(a, idx, act[k:k+1], p.ex[pc])
			}
			if o := int(i)*a.stride + int(e); in.op == opLoadD {
				d[i] = a.f64[o]
			} else {
				d[i] = float64(a.f32[o])
			}
		}
	case opLoadK:
		// Bounds statically proven by the optimizer: no check.
		a := &l.arrs[in.a]
		l.setTyp(in.dst, a.t, act)
		for k := 0; k < a.t.Lanes; k++ {
			d, e := l.flt(in.dst, k), int(in.imm)*a.t.Lanes+k
			for _, i := range act {
				d[i] = a.at(i, e)
			}
		}
	case opCheckIdx:
		return l.inBounds(&l.arrs[in.a], l.asInts(in.b, act), act, p.ex[pc])
	case opStore:
		return l.store(in.a, l.asInts(in.b, act), in.c, act, p.ex[pc])
	case opStoreD, opStoreF:
		a, idx, x := &l.arrs[in.a], l.ints(in.b), l.flt(in.c, 0)
		for k, i := range act {
			e := idx[i]
			if uint64(e) >= uint64(a.elems) {
				return k + l.inBounds(a, idx, act[k:k+1], p.ex[pc])
			}
			if o := int(i)*a.stride + int(e); in.op == opStoreD {
				a.f64[o] = x[i]
			} else {
				a.f32[o] = float32(x[i])
			}
		}
	case opStoreK:
		a := &l.arrs[in.a]
		for k := 0; k < a.t.Lanes; k++ {
			x, e := l.src(in.c, k, act), int(in.imm)*a.t.Lanes+k
			for _, i := range act {
				a.set(i, e, x[i])
			}
		}
	case opVload:
		a, w := &l.arrs[in.a], int(in.imm)
		if a.t.Lanes != 1 {
			l.fail(act[0], errAt(p.ex[pc], "vload from a vector array"))
			return 0
		}
		off := l.asInts(in.b, act)
		k := l.inRange(a, off, w, "vload", act, p.ex[pc])
		for lane := w - 1; lane >= 0; lane-- {
			d := l.flt(in.dst, lane)
			for _, i := range act[:k] {
				d[i] = a.at(i, int(off[i])*w+lane)
			}
		}
		l.setTyp(in.dst, Type{Base: a.t.Base, Lanes: w}, act)
		return k
	case opVstore:
		a, w := &l.arrs[in.a], int(in.imm)
		if t := l.ty(in.c, act); t.Lanes != w {
			l.fail(act[0], errAt(p.ex[pc], "vstore%d given %d lanes", w, t.Lanes))
			return 0
		}
		if a.t.Lanes != 1 {
			l.fail(act[0], errAt(p.ex[pc], "vstore to a vector array"))
			return 0
		}
		off := l.asInts(in.b, act)
		k := l.inRange(a, off, w, "vstore", act, p.ex[pc])
		for lane := 0; lane < w; lane++ {
			x := l.src(in.c, lane, act[:k])
			for _, i := range act[:k] {
				a.set(i, int(off[i])*w+lane, x[i])
			}
		}
		return k
	case opAllocArr:
		def := p.defs[in.imm]
		a := &l.arrs[in.a]
		if a.f64 == nil && a.f32 == nil {
			*a = laneArr{t: def.t, elems: def.total / def.t.Lanes, stride: def.total}
			if def.t.Base == BaseDouble {
				a.f64 = make([]float64, l.n*def.total)
			} else {
				a.f32 = make([]float32, l.n*def.total)
			}
		}
		for _, i := range act {
			o := int(i) * def.total
			if a.f64 != nil {
				clear(a.f64[o : o+def.total])
			} else {
				clear(a.f32[o : o+def.total])
			}
		}
	case opLoadBin:
		op, side, slot := unpackLoadBin(in.imm)
		s := l.s1()
		k := l.load(s, slot, l.asInts(in.b, act), act, p.ex2[pc])
		if side == 0 {
			return l.bin(op, in.dst, s, in.a, act[:k], p.ex[pc])
		}
		return l.bin(op, in.dst, in.a, s, act[:k], p.ex[pc])
	case opBinStore:
		op, slot := unpackBinStore(in.imm)
		s := l.s1()
		k := l.bin(op, s, in.a, in.b, act, p.ex2[pc])
		return l.store(slot, l.asInts(in.c, act[:k]), s, act[:k], p.ex[pc])
	case opLoadStore:
		src, dst := unpackLoadStore(in.imm)
		s := l.s1()
		k := l.load(s, src, l.asInts(in.b, act), act, p.ex2[pc])
		return l.store(dst, l.asInts(in.c, act[:k]), s, act[:k], p.ex[pc])
	case opLoadMad:
		// Original order preserved: load (its own fault site in ex2),
		// then multiply and add (sharing the mad position in ex).
		s, prod := l.s1(), l.s2()
		k := l.load(s, int32(in.imm), l.asInts(in.c, act), act, p.ex2[pc])
		k = l.bin(aMul, prod, in.a, in.b, act[:k], p.ex[pc])
		return l.bin(aAdd, in.dst, prod, s, act[:k], p.ex[pc])
	case opMadAccD, opMadAccF:
		// Proven scalar operands and element of one base. The explicit
		// conversions pin the separate mul/add roundings of the generic
		// steps, forbidding FMA contraction.
		a := &l.arrs[in.imm]
		x, y, idx := l.flt(in.a, 0), l.flt(in.b, 0), l.ints(in.c)
		for k, i := range act {
			e := idx[i]
			if uint64(e) >= uint64(a.elems) {
				return k + l.inBounds(a, idx, act[k:k+1], p.ex2[pc])
			}
			if o := int(i)*a.stride + int(e); in.op == opMadAccD {
				a.f64[o] = float64(x[i]*y[i]) + a.f64[o]
			} else {
				a.f32[o] = float32(float64(float32(x[i]*y[i])) + float64(a.f32[o]))
			}
		}
	case opMadAcc:
		// arrs[imm][r[c]] = r[a]*r[b] + arrs[imm][r[c]]. The trailing
		// store cannot fault: the load of the same element succeeded.
		slot := int32(in.imm)
		a, ta, tb := &l.arrs[slot], l.ty(in.a, act), l.ty(in.b, act)
		tm, msg1 := floatBinType(aMul, ta, tb)
		ts, msg2 := floatBinType(aAdd, tm, a.t)
		if !ta.IsInt() && !tb.IsInt() && msg1 == "" && msg2 == "" {
			return l.madAcc(a, in.a, in.b, tm.Base, ts.Base, l.asInts(in.c, act), act, p.ex2[pc])
		}
		s, prod := l.s1(), l.s2()
		k := l.load(s, slot, l.asInts(in.c, act), act, p.ex2[pc])
		k = l.bin(aMul, prod, in.a, in.b, act[:k], p.ex[pc])
		k = l.bin(aAdd, prod, prod, s, act[:k], p.ex[pc])
		return l.store(slot, l.asInts(in.c, act[:k]), prod, act[:k], p.ex[pc])
	case opErr:
		l.fail(act[0], p.errs[in.imm])
		return 0
	}
	return n
}

// move copies t-typed register a into dst, touching only t's lanes.
func (l *lanes) move(dst, a int32, t Type, act []int32) {
	if dst == a {
		return
	}
	l.setTyp(dst, t, act)
	if t.IsInt() {
		x, d := l.ints(a), l.ints(dst)
		for _, i := range act {
			d[i] = x[i]
		}
		return
	}
	for k := 0; k < t.Lanes; k++ {
		x, d := l.flt(a, k), l.flt(dst, k)
		for _, i := range act {
			d[i] = x[i]
		}
	}
}

// bin runs dst = a op b for the items of act: intArith for two
// integers, else floatBinType's promotion with floatArith and round32
// lane by lane. It returns how many items completed, like step.
func (l *lanes) bin(op int64, dst, a, b int32, act []int32, at Expr) int {
	if len(act) == 0 {
		return 0
	}
	lt, rt := l.ty(a, act), l.ty(b, act)
	if lt.IsInt() && rt.IsInt() {
		x, y, d := l.ints(a), l.ints(b), l.ints(dst)
		l.setTyp(dst, intType, act)
		// The add, multiply and less-than of address arithmetic and
		// loop tests cannot fault and run inline.
		switch {
		case op == aAdd:
			for _, i := range act {
				d[i] = x[i] + y[i]
			}
		case op == aMul:
			for _, i := range act {
				d[i] = x[i] * y[i]
			}
		case op == aLt:
			for _, i := range act {
				d[i] = b2i(x[i] < y[i])
			}
		default:
			for k, i := range act {
				v, msg := intArith(op, x[i], y[i])
				if msg != "" {
					l.fail(i, errAt(at, "%s", msg))
					return k
				}
				d[i] = v
			}
		}
		return len(act)
	}
	t, msg := floatBinType(op, lt, rt)
	if msg != "" {
		l.fail(act[0], errAt(at, "%s", msg))
		return 0
	}
	if op >= aLt {
		x, y := l.src(a, 0, act), l.src(b, 0, act)
		d := l.ints(dst)
		for _, i := range act {
			d[i] = b2i(compare(op, x[i], y[i]))
		}
		l.setTyp(dst, intType, act)
		return len(act)
	}
	// Lanes run high to low: a broadcast operand rereads lane 0, which
	// a dst aliasing it overwrites last.
	for k := t.Lanes - 1; k >= 0; k-- {
		laneArith(op, t.Base, l.flt(dst, k), l.src(a, k, act), l.src(b, k, act), act)
	}
	l.setTyp(dst, t, act)
	return len(act)
}

// laneArith is round32(base, floatArith(op, x, y)) over the items of act,
// with the operator and the rounding resolved once
// (TestLaneArithMatchesScalar holds it to the scalar helpers).
func laneArith(op int64, base BaseType, d, x, y []float64, act []int32) {
	if base == BaseFloat {
		switch op {
		case aAdd:
			for _, i := range act {
				d[i] = float64(float32(x[i] + y[i]))
			}
		case aSub:
			for _, i := range act {
				d[i] = float64(float32(x[i] - y[i]))
			}
		case aMul:
			for _, i := range act {
				d[i] = float64(float32(x[i] * y[i]))
			}
		default:
			for _, i := range act {
				d[i] = float64(float32(x[i] / y[i]))
			}
		}
		return
	}
	switch op {
	case aAdd:
		for _, i := range act {
			d[i] = x[i] + y[i]
		}
	case aSub:
		for _, i := range act {
			d[i] = x[i] - y[i]
		}
	case aMul:
		for _, i := range act {
			d[i] = float64(x[i] * y[i])
		}
	default:
		for _, i := range act {
			d[i] = x[i] / y[i]
		}
	}
}

// convert runs dst = (to) a for the items of act, with convertFault's
// check and value.asInt/round32 per lane.
func (l *lanes) convert(dst, a int32, to Type, act []int32, at Expr) int {
	from := l.ty(a, act)
	if msg := convertFault(from, to); msg != "" {
		l.fail(act[0], errAt(at, "%s", msg))
		return 0
	}
	if from == to {
		l.move(dst, a, to, act)
		return len(act)
	}
	if to.IsInt() {
		x, d := l.asInts(a, act), l.ints(dst)
		for _, i := range act {
			d[i] = x[i]
		}
		l.setTyp(dst, to, act)
		return len(act)
	}
	// Broadcast lanes run high to low so a dst aliasing a keeps lane 0
	// until last.
	for k := to.Lanes - 1; k >= 0; k-- {
		x, d := l.src(a, k, act), l.flt(dst, k)
		if to.Base == BaseFloat {
			for _, i := range act {
				d[i] = float64(float32(x[i]))
			}
		} else {
			for _, i := range act {
				d[i] = x[i]
			}
		}
	}
	l.setTyp(dst, to, act)
	return len(act)
}

// inBounds checks idx against a for the items of act in order and
// returns how many precede the first out-of-range item, whose fault it
// records.
func (l *lanes) inBounds(a *laneArr, idx []int64, act []int32, at Expr) int {
	for j, i := range act {
		if e := idx[i]; uint64(e) >= uint64(a.elems) {
			l.fail(i, errAt(at, "index %d out of range [0,%d)", e, a.elems))
			return j
		}
	}
	return len(act)
}

// inRange checks vloadN/vstoreN offsets off (of w elements) against a
// like inBounds.
func (l *lanes) inRange(a *laneArr, off []int64, w int, what string, act []int32, at Expr) int {
	for j, i := range act {
		if s := off[i] * int64(w); s < 0 || s+int64(w) > int64(a.elems) {
			l.fail(i, errAt(at, "%s%d offset %d out of range", what, w, off[i]))
			return j
		}
	}
	return len(act)
}

// load runs dst = arrs[slot][idx] for the items of act, bounds-checked.
// A load writes only dst, so every lane can run after the bounds pass.
func (l *lanes) load(dst, slot int32, idx []int64, act []int32, at Expr) int {
	a := &l.arrs[slot]
	l.setTyp(dst, a.t, act)
	k := l.inBounds(a, idx, act, at)
	w := a.t.Lanes
	for lane := 0; lane < w; lane++ {
		d := l.flt(dst, lane)
		if a.f64 != nil {
			for _, i := range act[:k] {
				d[i] = a.f64[int(i)*a.stride+int(idx[i])*w+lane]
			}
		} else {
			for _, i := range act[:k] {
				d[i] = float64(a.f32[int(i)*a.stride+int(idx[i])*w+lane])
			}
		}
	}
	return k
}

// store runs arrs[slot][idx] = v for the items of act, bounds-checked;
// lanes follow value.lane. The items before the first out-of-range one
// store, lane by lane in item order.
func (l *lanes) store(slot int32, idx []int64, v int32, act []int32, at Expr) int {
	a := &l.arrs[slot]
	k := l.inBounds(a, idx, act, at)
	w := a.t.Lanes
	for lane := 0; lane < w; lane++ {
		x := l.src(v, lane, act[:k])
		if a.f64 != nil {
			for _, i := range act[:k] {
				a.f64[int(i)*a.stride+int(idx[i])*w+lane] = x[i]
			}
		} else {
			for _, i := range act[:k] {
				a.f32[int(i)*a.stride+int(idx[i])*w+lane] = float32(x[i])
			}
		}
	}
	return k
}

// madAcc runs opMadAcc for float operands whose multiply and add cannot
// fault: each item's element lanes become elem + a*b, the product
// rounded to base mul and the sum to base add, as the generic load,
// bin, bin, store steps round them. When the operands and the element
// share one precision (the vector kernels of a tuning search) the
// roundings are plain conversions, with no per-element round32 test.
func (l *lanes) madAcc(a *laneArr, ra, rb int32, mul, add BaseType, idx []int64, act []int32, at Expr) int {
	k := l.inBounds(a, idx, act, at)
	w := a.t.Lanes
	for lane := 0; lane < w; lane++ {
		x, y := l.src(ra, lane, act[:k]), l.src(rb, lane, act[:k])
		switch {
		case a.f64 != nil && mul == BaseDouble && add == BaseDouble:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := float64(x[i] * y[i])
				a.f64[o] = prod + a.f64[o]
			}
		case a.f32 != nil && mul == BaseFloat && add == BaseFloat:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := float64(float32(x[i] * y[i]))
				a.f32[o] = float32(prod + float64(a.f32[o]))
			}
		case a.f64 != nil:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := round32(mul, float64(x[i]*y[i]))
				a.f64[o] = round32(add, prod+a.f64[o])
			}
		default:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := round32(mul, float64(x[i]*y[i]))
				a.f32[o] = float32(round32(add, prod+float64(a.f32[o])))
			}
		}
	}
	return k
}

// at reads payload element e of item i's view.
func (a *laneArr) at(i int32, e int) float64 {
	o := int(i)*a.stride + e
	if a.f64 != nil {
		return a.f64[o]
	}
	return float64(a.f32[o])
}

// set writes payload element e of item i's view.
func (a *laneArr) set(i int32, e int, x float64) {
	o := int(i)*a.stride + e
	if a.f64 != nil {
		a.f64[o] = x
	} else {
		a.f32[o] = float32(x)
	}
}

// layoutLanes sizes lane storage from the program's static register
// widths. A fixpoint over every instruction that writes a register
// gives the most float lanes the register can hold (0 when it only ever
// holds integers); two scratch registers as wide as the widest value
// follow.
func (p *compiledKernel) layoutLanes() {
	w := make([]int, p.nreg)
	wmax := 1
	slot := func(s int32) int { return p.slotT[s].Lanes }
	for _, t := range p.slotT {
		wmax = max(wmax, t.Lanes)
	}
	for _, r := range p.paramRegs {
		if r >= 0 {
			w[r] = 1 // a scalar argument, set before the first instruction
		}
	}
	for changed := true; changed; {
		changed = false
		for i := range p.code {
			in := &p.code[i]
			dw := 0
			switch in.op {
			case opConst:
				if t := p.consts[in.imm].t; !t.IsInt() {
					dw = t.Lanes
				}
			case opMov, opNeg:
				dw = w[in.a]
			case opBin:
				dw = max(w[in.a], w[in.b])
			case opConvert, opVecCtor:
				dw = p.types[in.imm].Lanes
			case opConvertDyn:
				dw = slot(in.b)
			case opMad:
				dw = max(w[in.a], w[in.b], w[in.c])
			case opMin, opMax:
				dw = 1
			case opLoad, opLoadK, opLoadD, opLoadF:
				dw = slot(in.a)
			case opVload:
				dw = int(in.imm)
			case opLoadBin:
				_, _, s := unpackLoadBin(in.imm)
				dw = max(w[in.a], slot(s))
			case opLoadMad:
				dw = max(w[in.a], w[in.b], slot(int32(in.imm)))
			default:
				continue
			}
			if dw > w[in.dst] {
				w[in.dst] = dw
				changed = true
			}
		}
	}
	p.foff = make([]int32, p.nreg+2)
	rows := 0
	for r, n := range w {
		p.foff[r] = int32(rows)
		rows += n
		wmax = max(wmax, n)
	}
	p.foff[p.nreg], p.foff[p.nreg+1] = int32(rows), int32(rows+wmax)
	p.rows = rows + 2*wmax
}
