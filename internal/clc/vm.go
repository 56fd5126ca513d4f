package clc

// The bytecode VM: a lane executor over a compiledKernel. A work-group
// runs its items in lockstep between barriers. Registers live in
// structure-of-arrays lane storage (one slot per register per item,
// vector lanes flattened), and every register has one static type, so
// each instruction is decoded and picks its loop from those types once
// and then runs a tight loop over the active items. A branch whose
// condition differs between items narrows the active set; the items
// rejoin where the compiler's structured joins meet, because the lowest
// waiting pc always runs first. Faults are positioned *Error values
// recorded against their item, using the per-instruction ex table for
// positions at zero cost off the error path.

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
			v.val = convertVal(intVal(int64(a)), canon(Type{Base: p.Type.Base, Lanes: 1}), nil)
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
// groups one worker frame runs share it, across launches on the same
// queue. The argument arrays are detached when the group returns, so a
// kept frame holds sized storage but none of the caller's buffers.
func (b *BoundKernel) RunGroup(g *clsim.Group) {
	p := b.progOpt
	if b.noOpt {
		p = b.prog
	}
	l := lanesFor(g, p)
	defer l.detach()
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

// lanes is a work-group's execution state. An integer register r
// holds item i's value at iv[off[r]*n+i]; lane k of a floating register
// r sits at fv[(off[r]+k)*n+i].
type lanes struct {
	p     *compiledKernel
	n, nx int

	iv   []int64
	fv   []float64
	arrs []laneArr

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

// opnd is a register with the type an instruction reads or writes it
// as: its static type, or for the scratch registers nreg and nreg+1,
// which hold fused instructions' intermediates and are dead between
// instructions, the intermediate's type.
type opnd struct {
	r int32
	t Type
}

func (l *lanes) reg(r int32) opnd { return opnd{r, l.p.regT[r]} }

func (l *lanes) s1(t Type) opnd { return opnd{int32(l.p.nreg), t} }
func (l *lanes) s2(t Type) opnd { return opnd{int32(l.p.nreg + 1), t} }

// lanesFor returns the worker's lane storage for p at g's group shape,
// allocating it when the frame's slot holds none for that program and
// shape.
func lanesFor(g *clsim.Group, p *compiledKernel) *lanes {
	slot := g.Scratch()
	n, nx := g.Size(), g.LocalSize(0)
	if l, ok := (*slot).(*lanes); ok && l.p == p && l.n == n && l.nx == nx {
		return l
	}
	l := &lanes{
		p: p, n: n, nx: nx,
		iv:   make([]int64, p.irows*n),
		fv:   make([]float64, p.frows*n),
		arrs: make([]laneArr, p.narr),
		pc:   make([]int32, n),
		st:   make([]uint8, n),
		fuel: make([]int64, n),
		act:  make([]int32, n),
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
	l.fuelOn = b.fuel > 0
	l.faultID, l.fault = int32(l.n), nil
}

// detach drops the argument buffers start attached.
func (l *lanes) detach() {
	for _, slot := range l.p.paramArrs {
		if slot >= 0 {
			l.arrs[slot] = laneArr{}
		}
	}
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}

func (l *lanes) ints(r int32) []int64 {
	o := int(l.p.off[r]) * l.n
	return l.iv[o : o+l.n]
}

func (l *lanes) flt(r int32, lane int) []float64 {
	o := (int(l.p.off[r]) + lane) * l.n
	return l.fv[o : o+l.n]
}

// src returns lane k of floating operand x by item; a scalar broadcasts
// its lane 0.
func (l *lanes) src(x opnd, k int) []float64 {
	if x.t.Lanes == 1 {
		k = 0
	}
	return l.flt(x.r, k)
}

// truth reports item i's register r as a condition: an int is true when
// nonzero, a floating value when its lane 0 is.
func (l *lanes) truth(r int32, i int32) bool {
	if l.p.regT[r].IsInt() {
		return l.iv[int(l.p.off[r])*l.n+int(i)] != 0
	}
	return l.fv[int(l.p.off[r])*l.n+int(i)] != 0
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
	if l.p.regT[in.a].IsInt() {
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
// faulted (the fault is recorded; later items drop out).
func (l *lanes) step(g *clsim.Group, pc int, in *instr, act []int32) int {
	p := l.p
	n := len(act)
	switch in.op {
	case opConst:
		c := &p.consts[in.imm]
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
		l.move(in.dst, in.a, act)
	case opBool, opNot:
		want := in.op == opBool
		d := l.ints(in.dst)
		if p.regT[in.a].IsInt() {
			x := l.ints(in.a)
			for _, i := range act {
				d[i] = b2i((x[i] != 0) == want)
			}
			return n
		}
		x := l.flt(in.a, 0)
		for _, i := range act {
			d[i] = b2i((x[i] != 0) == want)
		}
	case opBitNot:
		x, d := l.ints(in.a), l.ints(in.dst)
		for _, i := range act {
			d[i] = ^x[i]
		}
	case opBin:
		return l.bin(in.imm, l.reg(in.dst), l.reg(in.a), l.reg(in.b), act, p.ex[pc])
	case opNeg:
		t := p.regT[in.a]
		if t.IsInt() {
			x, d := l.ints(in.a), l.ints(in.dst)
			for _, i := range act {
				d[i] = wrapInt(t, -x[i])
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
		l.convert(l.reg(in.dst), l.reg(in.a), act)
	case opVecCtor:
		// The components are scalars of the element type, in distinct
		// registers that are never dst.
		for k := int32(0); k < in.c; k++ {
			x, d := l.flt(in.a+k, 0), l.flt(in.dst, int(k))
			for _, i := range act {
				d[i] = x[i]
			}
		}
	case opWI:
		x, d := l.ints(in.a), l.ints(in.dst)
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
	case opMad:
		// Contract: mad(a,b,c)/fma(a,b,c) is NOT fused — it lowers to
		// two separate binary operations (multiply, then add) through a
		// scratch register, each rounding to the operands' promoted
		// precision. Double rounding is therefore part of the semantics
		// the engine golden pins bit-for-bit; no handler may replace
		// this with a hardware FMA. ex2 carries the multiply's fault
		// position (it differs from ex only when the optimizer fused a
		// separate mul+add pair into this opMad).
		x, y, z := l.reg(in.a), l.reg(in.b), l.reg(in.c)
		if x.t.IsInt() {
			// Fused address arithmetic cannot fault.
			xs, ys, zs, d, t := l.ints(in.a), l.ints(in.b), l.ints(in.c), l.ints(in.dst), p.regT[in.dst]
			for _, i := range act {
				d[i] = wrapInt(t, xs[i]*ys[i]+zs[i])
			}
			return n
		}
		_, tm, _ := binType(aMul, x.t, y.t)
		prod := l.s1(tm)
		l.bin(aMul, prod, x, y, act, p.ex2[pc])
		l.bin(aAdd, l.reg(in.dst), prod, z, act, p.ex[pc])
	case opMin, opMax:
		if p.regT[in.a].IsInt() {
			x, y, d := l.ints(in.a), l.ints(in.b), l.ints(in.dst)
			for _, i := range act {
				if in.op == opMin {
					d[i] = min(x[i], y[i])
				} else {
					d[i] = max(x[i], y[i])
				}
			}
			return n
		}
		// Float min/max returns a double scalar of lane 0 whatever the
		// operand types; the golden pins the quirk.
		x, y, d := l.flt(in.a, 0), l.flt(in.b, 0), l.flt(in.dst, 0)
		for _, i := range act {
			if in.op == opMin {
				d[i] = math.Min(x[i], y[i])
			} else {
				d[i] = math.Max(x[i], y[i])
			}
		}
	case opLoad:
		return l.load(in.dst, in.a, l.ints(in.b), act, p.ex[pc])
	case opLoadK:
		// Bounds statically proven by the optimizer: no check.
		a := &l.arrs[in.a]
		for k := 0; k < a.t.Lanes; k++ {
			d, e := l.flt(in.dst, k), int(in.imm)*a.t.Lanes+k
			for _, i := range act {
				d[i] = a.at(i, e)
			}
		}
	case opCheckIdx:
		return l.inBounds(&l.arrs[in.a], l.ints(in.b), act, p.ex[pc])
	case opStore:
		return l.store(in.a, l.ints(in.b), in.c, act, p.ex[pc])
	case opStoreK:
		a := &l.arrs[in.a]
		for k := 0; k < a.t.Lanes; k++ {
			x, e := l.flt(in.c, k), int(in.imm)*a.t.Lanes+k
			for _, i := range act {
				a.set(i, e, x[i])
			}
		}
	case opVload:
		a, w, off := &l.arrs[in.a], int(in.imm), l.ints(in.b)
		k := l.inRange(a, off, w, "vload", act, p.ex[pc])
		for lane := w - 1; lane >= 0; lane-- {
			d := l.flt(in.dst, lane)
			for _, i := range act[:k] {
				d[i] = a.at(i, int(off[i])*w+lane)
			}
		}
		return k
	case opVstore:
		a, w, off := &l.arrs[in.a], int(in.imm), l.ints(in.b)
		k := l.inRange(a, off, w, "vstore", act, p.ex[pc])
		for lane := 0; lane < w; lane++ {
			x := l.flt(in.c, lane)
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
		elem := l.s1(p.slotT[slot])
		k := l.load(elem.r, slot, l.ints(in.b), act, p.ex2[pc])
		if side == 0 {
			return l.bin(op, l.reg(in.dst), elem, l.reg(in.a), act[:k], p.ex[pc])
		}
		return l.bin(op, l.reg(in.dst), l.reg(in.a), elem, act[:k], p.ex[pc])
	case opBinStore:
		op, slot := unpackBinStore(in.imm)
		v := l.s1(p.slotT[slot])
		k := l.bin(op, v, l.reg(in.a), l.reg(in.b), act, p.ex2[pc])
		return l.store(slot, l.ints(in.c), v.r, act[:k], p.ex[pc])
	case opLoadStore:
		src, dst := unpackLoadStore(in.imm)
		v := l.s1(p.slotT[src])
		k := l.load(v.r, src, l.ints(in.b), act, p.ex2[pc])
		return l.store(dst, l.ints(in.c), v.r, act[:k], p.ex[pc])
	case opLoadMad:
		// Original order preserved: load (its own fault site in ex2),
		// then multiply and add (sharing the mad position in ex).
		x, y := l.reg(in.a), l.reg(in.b)
		_, tm, _ := binType(aMul, x.t, y.t)
		elem, prod := l.s1(p.slotT[in.imm]), l.s2(tm)
		k := l.load(elem.r, int32(in.imm), l.ints(in.c), act, p.ex2[pc])
		l.bin(aMul, prod, x, y, act[:k], p.ex[pc])
		l.bin(aAdd, l.reg(in.dst), prod, elem, act[:k], p.ex[pc])
		return k
	case opMadAcc:
		// arrs[imm][r[c]] = r[a]*r[b] + arrs[imm][r[c]]. The trailing
		// store cannot fault: the load of the same element succeeded.
		x, y := l.reg(in.a), l.reg(in.b)
		_, tm, _ := binType(aMul, x.t, y.t)
		return l.madAcc(&l.arrs[in.imm], x, y, tm.Base, l.ints(in.c), act, p.ex2[pc])
	case opErr:
		l.fail(act[0], p.errs[in.imm])
		return 0
	}
	return n
}

// move copies register a into dst, a register of the same type.
func (l *lanes) move(dst, a int32, act []int32) {
	if dst == a {
		return
	}
	t := l.p.regT[dst]
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

// bin runs d = x op y for the items of act. The operands are both of
// one integer type (intArith) or both floating, a scalar broadcasting
// against a vector (floatArith rounded to d's base). It returns how many
// items completed, like step: only an integer division or modulo by
// zero faults.
func (l *lanes) bin(op int64, d, x, y opnd, act []int32, at Expr) int {
	if x.t.IsInt() {
		xs, ys, ds := l.ints(x.r), l.ints(y.r), l.ints(d.r)
		// The int add, multiply and less-than of address arithmetic and
		// loop tests cannot fault and run inline.
		switch {
		case op == aAdd && x.t == intType:
			for _, i := range act {
				ds[i] = int64(int32(xs[i] + ys[i]))
			}
		case op == aMul && x.t == intType:
			for _, i := range act {
				ds[i] = int64(int32(xs[i] * ys[i]))
			}
		case op == aLt:
			for _, i := range act {
				ds[i] = b2i(xs[i] < ys[i])
			}
		default:
			for k, i := range act {
				v, msg := intArith(op, x.t, xs[i], ys[i])
				if msg != "" {
					l.fail(i, errAt(at, "%s", msg))
					return k
				}
				ds[i] = v
			}
		}
		return len(act)
	}
	if op >= aLt {
		// Comparisons take scalars: vector comparisons are type faults.
		xs, ys, ds := l.flt(x.r, 0), l.flt(y.r, 0), l.ints(d.r)
		for _, i := range act {
			ds[i] = b2i(compare(op, xs[i], ys[i]))
		}
		return len(act)
	}
	// Lanes run high to low: a broadcast operand rereads lane 0, which
	// a d aliasing it overwrites last.
	for k := d.t.Lanes - 1; k >= 0; k-- {
		laneArith(op, d.t.Base, l.flt(d.r, k), l.src(x, k), l.src(y, k), act)
	}
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

// convert runs d = (d.t) x for the items of act, with value.asInt,
// wrapInt and round32 per lane as the constant folder's convertVal: an
// integer takes another integer wrapped to its type, or a floating
// value's lane 0, and a scalar broadcasts to a vector.
func (l *lanes) convert(d, x opnd, act []int32) {
	switch {
	case x.t == d.t:
		l.move(d.r, x.r, act)
	case d.t.IsInt() && x.t.IsInt():
		xs, ds := l.ints(x.r), l.ints(d.r)
		for _, i := range act {
			ds[i] = wrapInt(d.t, xs[i])
		}
	case d.t.IsInt():
		xs, ds := l.flt(x.r, 0), l.ints(d.r)
		for _, i := range act {
			ds[i] = wrapInt(d.t, int64(xs[i]))
		}
	case x.t.IsInt():
		xs := l.ints(x.r)
		for k := 0; k < d.t.Lanes; k++ {
			ds := l.flt(d.r, k)
			for _, i := range act {
				ds[i] = round32(d.t.Base, float64(xs[i]))
			}
		}
	default:
		for k := 0; k < d.t.Lanes; k++ {
			xs, ds := l.src(x, k), l.flt(d.r, k)
			if d.t.Base == BaseFloat {
				for _, i := range act {
					ds[i] = float64(float32(xs[i]))
				}
			} else {
				for _, i := range act {
					ds[i] = xs[i]
				}
			}
		}
	}
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
// v has the element type. The items before the first out-of-range one
// store, lane by lane in item order.
func (l *lanes) store(slot int32, idx []int64, v int32, act []int32, at Expr) int {
	a := &l.arrs[slot]
	k := l.inBounds(a, idx, act, at)
	w := a.t.Lanes
	for lane := 0; lane < w; lane++ {
		x := l.flt(v, lane)
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

// madAcc runs opMadAcc: each item's element lanes become elem + x*y,
// the product rounded to base mul and the sum to the element's base, as
// the unfused load, bin, bin, store steps round them. The sum has the
// element's type, so a float element means a float product. When the
// operands and the element share one precision (the vector kernels of a
// tuning search) the roundings are plain conversions, with no
// per-element round32 test.
func (l *lanes) madAcc(a *laneArr, x, y opnd, mul BaseType, idx []int64, act []int32, at Expr) int {
	k := l.inBounds(a, idx, act, at)
	w := a.t.Lanes
	for lane := 0; lane < w; lane++ {
		xs, ys := l.src(x, lane), l.src(y, lane)
		switch {
		case a.f32 != nil:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := float64(float32(xs[i] * ys[i]))
				a.f32[o] = float32(prod + float64(a.f32[o]))
			}
		case mul == BaseDouble:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := float64(xs[i] * ys[i])
				a.f64[o] = prod + a.f64[o]
			}
		default:
			for _, i := range act[:k] {
				o := int(i)*a.stride + int(idx[i])*w + lane
				prod := round32(mul, float64(xs[i]*ys[i]))
				a.f64[o] = prod + a.f64[o]
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

// layoutLanes sizes lane storage from the registers' static types: an
// int register takes one iv row, a floating register one fv row per
// lane. Two floating scratch registers as wide as the widest value
// follow.
func (p *compiledKernel) layoutLanes() {
	p.off = make([]int32, p.nreg+2)
	p.irows, p.frows = 0, 0
	wmax := 1
	for _, t := range p.slotT {
		wmax = max(wmax, t.Lanes)
	}
	for r, t := range p.regT {
		if t.IsInt() {
			p.off[r] = int32(p.irows)
			p.irows++
			continue
		}
		p.off[r] = int32(p.frows)
		p.frows += t.Lanes
		wmax = max(wmax, t.Lanes)
	}
	p.off[p.nreg], p.off[p.nreg+1] = int32(p.frows), int32(p.frows+wmax)
	p.frows += 2 * wmax
}
