package clc

// The bytecode VM: a flat instruction loop over a compiledKernel. A
// work-group runs its items in lockstep between barriers, each on a
// resumable frame of registers and array slots checked out of the
// program's pool; parameters are copied into registers up front so the
// hot loop never touches a map. Faults panic with positioned *Error
// values (the executor recovers them into launch errors), using the
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

// kernelArg is one bound argument: a scalar value, or the array store
// wrapping a __global buffer.
type kernelArg struct {
	val value
	arr *arrayStore
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
			v.arr = &arrayStore{t: Type{Base: BaseFloat, Lanes: 1}, f32: a}
		case []float64:
			if !p.Pointer || p.Type.Base != BaseDouble {
				return nil, fmt.Errorf("clc: argument %d: []float64 given for parameter %q", i, p.Name)
			}
			v.arr = &arrayStore{t: Type{Base: BaseDouble, Lanes: 1}, f64: a}
		default:
			return nil, fmt.Errorf("clc: argument %d: unsupported type %T", i, args[i])
		}
	}
	if err := k.CompileBytecode(); err != nil {
		return nil, err
	}
	// Top-level __local declarations (all arrays; the checker rejects
	// scalars) are work-group state, allocated by RunGroup.
	for _, s := range k.Body.Stmts {
		if d, ok := s.(*Decl); ok && d.Space == LocalMem {
			b.locals = append(b.locals, d)
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
	locals []*Decl

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
// on the raw bytecode when SetOptimize(false). It allocates the group's
// __local arrays, then starts the items in linear order (ly outer, lx
// inner); each runs until it halts or stops at a barrier. A sweep over
// the items must end with every item halted or every item stopped at
// the same barrier, else the group panics with ErrBarrierDivergence; at
// a common barrier every item arrives and then every item resumes.
//
// An item takes a frame when it starts and a halted item's frame goes
// to the next item, so a barrier-free kernel runs the whole group on
// one frame. Frames return to the pool only when the group completes;
// a faulting group's frames are abandoned to the GC.
func (b *BoundKernel) RunGroup(g *clsim.Group) {
	p := b.progOpt
	if b.noOpt {
		p = b.prog
	}
	locals := b.allocLocals(g)
	n, nx := g.Size(), g.LocalSize(0)
	var parked []*vmFrame // by linear local id, once an item stops at a barrier
	var free *vmFrame
	halted := 0
	for i := 0; i < n; i++ {
		f := free
		if f == nil {
			f = p.frame()
		}
		free = nil
		p.start(f, b.args, locals, b.fuel, i%nx, i/nx)
		if !p.run(g, f) {
			halted++
			free = f
			continue
		}
		if parked == nil {
			parked = make([]*vmFrame, n)
		}
		parked[i] = f
	}
	for halted < n {
		if halted > 0 {
			panic(ErrBarrierDivergence)
		}
		for _, f := range parked {
			if f.pc != parked[0].pc {
				panic(ErrBarrierDivergence)
			}
		}
		g.Arrive(n)
		for _, f := range parked {
			if !p.run(g, f) {
				halted++
			}
		}
	}
	if parked == nil {
		p.pool.Put(free)
	}
	for _, f := range parked {
		p.pool.Put(f)
	}
}

// allocLocals allocates the kernel's __local arrays, in hoisting order,
// through the work-group's accounting (so capacity overruns surface
// exactly as on a real device).
func (b *BoundKernel) allocLocals(g *clsim.Group) []*arrayStore {
	slots := make([]*arrayStore, len(b.locals))
	for i, d := range b.locals {
		n, err := constFold(d.ArrayLen)
		if err != nil {
			panic(err)
		}
		total := int(n) * d.Type.Lanes
		st := &arrayStore{t: d.Type}
		if d.Type.Base == BaseDouble {
			st.f64 = g.AllocLocalFloat64(total)
		} else {
			st.f32 = g.AllocLocalFloat32(total)
		}
		slots[i] = st
	}
	return slots
}

// vmFrame is one work-item's resumable state: registers, array slots,
// the pc to resume at, the remaining fuel and the local id.
type vmFrame struct {
	regs []value
	arrs []*arrayStore
	pc   int
	fuel int64
	lid  [2]int
}

func (p *compiledKernel) frame() *vmFrame {
	if f, ok := p.pool.Get().(*vmFrame); ok {
		return f
	}
	return &vmFrame{regs: make([]value, p.nreg), arrs: make([]*arrayStore, p.narr)}
}

// start readies f to run the program from the top for the item with
// local id (lx, ly). args are the bound kernel arguments (scalar values
// are copied into registers — OpenCL argument semantics); locals are
// the work-group's __local arrays in hoisting order; fuel > 0 bounds
// loop back-edges (see BoundKernel.SetFuel).
func (p *compiledKernel) start(f *vmFrame, args []kernelArg, locals []*arrayStore, fuel int64, lx, ly int) {
	for i := range args {
		if r := p.paramRegs[i]; r >= 0 {
			copyVal(&f.regs[r], &args[i].val)
		} else {
			f.arrs[p.paramArrs[i]] = args[i].arr
		}
	}
	for ord, slot := range p.localSlots {
		f.arrs[slot] = locals[ord]
	}
	f.pc, f.fuel, f.lid = 0, fuel, [2]int{lx, ly}
}

// run resumes f's work-item at its saved pc in work-group g. It returns
// true when the item stops at a barrier (f then holds the pc after the
// barrier) and false when it halts.
func (p *compiledKernel) run(g *clsim.Group, f *vmFrame) bool {
	regs, arrs := f.regs, f.arrs
	pc, fuel := f.pc, f.fuel
	code := p.code
	for {
		in := &code[pc]
		switch in.op {
		case opConst:
			copyVal(&regs[in.dst], &p.consts[in.imm])
		case opMov:
			copyVal(&regs[in.dst], &regs[in.a])
		case opBool:
			setBool(&regs[in.dst], regs[in.a].truthy())
		case opBin:
			// The integer add, multiply and less-than of address
			// arithmetic and loop tests cannot fault and run inline;
			// everything else goes through binopInto.
			l, r, dst := &regs[in.a], &regs[in.b], &regs[in.dst]
			if l.t.IsInt() && r.t.IsInt() {
				switch in.imm {
				case aAdd:
					setInt(dst, l.i+r.i)
					pc++
					continue
				case aMul:
					setInt(dst, l.i*r.i)
					pc++
					continue
				case aLt:
					setBool(dst, l.i < r.i)
					pc++
					continue
				}
			}
			binopInto(dst, in.imm, l, r, p.ex[pc])
		case opNeg:
			x := &regs[in.a]
			dst := &regs[in.dst]
			if x.t.IsInt() {
				setInt(dst, -x.i)
			} else {
				t := x.t
				for l := 0; l < t.Lanes; l++ {
					dst.f[l] = -x.f[l]
				}
				dst.t = t
			}
		case opNot:
			setBool(&regs[in.dst], !regs[in.a].truthy())
		case opBitNot:
			setInt(&regs[in.dst], ^regs[in.a].asInt())
		case opConvert:
			convertInto(&regs[in.dst], &regs[in.a], p.types[in.imm], p.ex[pc])
		case opConvertDyn:
			convertInto(&regs[in.dst], &regs[in.a], arrs[in.b].t, p.ex[pc])
		case opVecCtor:
			to := p.types[in.imm]
			// Source registers are distinct temps, never the dst block's
			// own slot, so writing lanes in order is alias-safe.
			dst := &regs[in.dst]
			for l := 0; l < int(in.c); l++ {
				dst.f[l] = round32(to.Base, regs[int(in.a)+l].lane(0))
			}
			dst.t = to
		case opJump:
			// Loop back-edges are the only backward jumps; charge fuel
			// once per completed loop iteration.
			if int(in.imm) <= pc && fuel > 0 {
				fuel--
				if fuel == 0 {
					panic(errLoopBudget)
				}
			}
			pc = int(in.imm)
			continue
		case opJumpF:
			if !regs[in.a].truthy() {
				pc = int(in.imm)
				continue
			}
		case opJumpT:
			if regs[in.a].truthy() {
				pc = int(in.imm)
				continue
			}
		case opWI:
			d := int(regs[in.a].asInt())
			if d < 0 || d > 1 {
				panic(errAt(p.ex[pc], "dimension %d out of range (2-D NDRange)", d))
			}
			var x int
			switch in.imm {
			case wiGlobalID:
				x = g.GlobalID(d, f.lid[d])
			case wiLocalID:
				x = f.lid[d]
			case wiGroupID:
				x = g.ID(d)
			case wiLocalSize:
				x = g.LocalSize(d)
			case wiGlobalSize:
				x = g.NumGroups(d) * g.LocalSize(d)
			default:
				x = g.NumGroups(d)
			}
			setInt(&regs[in.dst], int64(x))
		case opBarrier:
			f.pc, f.fuel = pc+1, fuel
			return true
		case opMad:
			// Contract: mad(a,b,c)/fma(a,b,c) is NOT fused — it lowers to
			// two separate binopInto calls (multiply, then add) through a
			// temporary, each rounding to the operands' promoted precision.
			// Double rounding is therefore part of the semantics the
			// engine golden pins bit-for-bit; no handler may replace this
			// with a hardware FMA. ex2 carries the multiply's fault
			// position (it differs from ex only when the optimizer fused a
			// separate mul+add pair into this opMad).
			// An all-integer mad (fused address arithmetic) cannot fault
			// and runs inline.
			a, b, c := &regs[in.a], &regs[in.b], &regs[in.c]
			if a.t.IsInt() && b.t.IsInt() && c.t.IsInt() {
				setInt(&regs[in.dst], a.i*b.i+c.i)
				break
			}
			var prod value
			binopInto(&prod, aMul, a, b, p.ex2[pc])
			binopInto(&regs[in.dst], aAdd, &prod, c, p.ex[pc])
		case opMin, opMax:
			a, b := &regs[in.a], &regs[in.b]
			if a.t.IsInt() && b.t.IsInt() {
				if in.op == opMin {
					setInt(&regs[in.dst], min(a.i, b.i))
				} else {
					setInt(&regs[in.dst], max(a.i, b.i))
				}
			} else {
				// Float min/max returns a double scalar of lane 0
				// regardless of operand types; the golden pins the quirk.
				x, y := a.lane(0), b.lane(0)
				dst := &regs[in.dst]
				if in.op == opMin {
					dst.f[0] = math.Min(x, y)
				} else {
					dst.f[0] = math.Max(x, y)
				}
				dst.t = Type{Base: BaseDouble, Lanes: 1}
			}
		case opLoad:
			arrs[in.a].loadInto(&regs[in.dst], regs[in.b].asInt(), p.ex[pc])
		case opCheckIdx:
			arr := arrs[in.a]
			idx := regs[in.b].asInt()
			if n := int64(arr.length()); idx < 0 || idx >= n {
				panic(errAt(p.ex[pc], "index %d out of range [0,%d)", idx, n))
			}
		case opStore:
			arrs[in.a].store(regs[in.b].asInt(), &regs[in.c], p.ex[pc])
		case opVload:
			arrs[in.a].vloadInto(&regs[in.dst], int(in.imm), regs[in.b].asInt(), p.ex[pc])
		case opVstore:
			v := &regs[in.c]
			w := int(in.imm)
			if v.t.Lanes != w {
				panic(errAt(p.ex[pc], "vstore%d given %d lanes", w, v.t.Lanes))
			}
			arrs[in.a].vstore(w, v, regs[in.b].asInt(), p.ex[pc])
		case opAllocArr:
			def := p.defs[in.imm]
			st := &arrayStore{t: def.t}
			if def.t.Base == BaseDouble {
				st.f64 = make([]float64, def.total)
			} else {
				st.f32 = make([]float32, def.total)
			}
			arrs[in.a] = st
		case opLoadK:
			// Bounds statically proven by the optimizer: no check.
			arrs[in.a].loadFast(&regs[in.dst], in.imm)
		case opStoreK:
			arrs[in.a].storeFast(in.imm, &regs[in.c])
		case opLoadBin:
			op, side, slot := unpackLoadBin(in.imm)
			var tmp value
			arrs[slot].loadInto(&tmp, regs[in.b].asInt(), p.ex2[pc])
			if side == 0 {
				binopInto(&regs[in.dst], op, &tmp, &regs[in.a], p.ex[pc])
			} else {
				binopInto(&regs[in.dst], op, &regs[in.a], &tmp, p.ex[pc])
			}
		case opBinStore:
			op, slot := unpackBinStore(in.imm)
			var tmp value
			binopInto(&tmp, op, &regs[in.a], &regs[in.b], p.ex2[pc])
			arrs[slot].store(regs[in.c].asInt(), &tmp, p.ex[pc])
		case opLoadStore:
			src, dst := unpackLoadStore(in.imm)
			var tmp value
			arrs[src].loadInto(&tmp, regs[in.b].asInt(), p.ex2[pc])
			arrs[dst].store(regs[in.c].asInt(), &tmp, p.ex[pc])
		case opLoadMad:
			// Original order preserved: load (its own fault site in ex2),
			// then multiply and add (sharing the mad position in ex).
			var tmp, prod value
			arrs[in.imm].loadInto(&tmp, regs[in.c].asInt(), p.ex2[pc])
			at := p.ex[pc]
			binopInto(&prod, aMul, &regs[in.a], &regs[in.b], at)
			binopInto(&regs[in.dst], aAdd, &prod, &tmp, at)
		case opMadAcc:
			// arrs[imm][r[c]] = r[a]*r[b] + arrs[imm][r[c]]. The trailing
			// store cannot fault: the load of the same element succeeded.
			arr := arrs[in.imm]
			idx := regs[in.c].asInt()
			var tmp, prod value
			arr.loadInto(&tmp, idx, p.ex2[pc])
			at := p.ex[pc]
			binopInto(&prod, aMul, &regs[in.a], &regs[in.b], at)
			binopInto(&prod, aAdd, &prod, &tmp, at)
			arr.store(idx, &prod, at)
		case opMadAccD:
			// Proven double-scalar operands and element. The explicit
			// float64 conversion pins the separate mul/add roundings the
			// generic path performs, forbidding FMA contraction.
			arr := arrs[in.imm]
			idx := regs[in.c].i
			if uint64(idx) >= uint64(len(arr.f64)) {
				panic(errAt(p.ex2[pc], "index %d out of range [0,%d)", idx, len(arr.f64)))
			}
			prod := float64(regs[in.a].f[0] * regs[in.b].f[0])
			arr.f64[idx] = prod + arr.f64[idx]
		case opMadAccF:
			// Float path: every step rounds to float32 exactly where the
			// generic binopInto/store path does.
			arr := arrs[in.imm]
			idx := regs[in.c].i
			if uint64(idx) >= uint64(len(arr.f32)) {
				panic(errAt(p.ex2[pc], "index %d out of range [0,%d)", idx, len(arr.f32)))
			}
			prod := float64(float32(regs[in.a].f[0] * regs[in.b].f[0]))
			arr.f32[idx] = float32(prod + float64(arr.f32[idx]))
		case opLoadD:
			arr := arrs[in.a]
			idx := regs[in.b].i
			if uint64(idx) >= uint64(len(arr.f64)) {
				panic(errAt(p.ex[pc], "index %d out of range [0,%d)", idx, len(arr.f64)))
			}
			dst := &regs[in.dst]
			dst.t = typeDoubleScalar
			dst.f[0] = arr.f64[idx]
		case opLoadF:
			arr := arrs[in.a]
			idx := regs[in.b].i
			if uint64(idx) >= uint64(len(arr.f32)) {
				panic(errAt(p.ex[pc], "index %d out of range [0,%d)", idx, len(arr.f32)))
			}
			dst := &regs[in.dst]
			dst.t = typeFloatScalar
			dst.f[0] = float64(arr.f32[idx])
		case opStoreD:
			arr := arrs[in.a]
			idx := regs[in.b].i
			if uint64(idx) >= uint64(len(arr.f64)) {
				panic(errAt(p.ex[pc], "index %d out of range [0,%d)", idx, len(arr.f64)))
			}
			arr.f64[idx] = regs[in.c].f[0]
		case opStoreF:
			arr := arrs[in.a]
			idx := regs[in.b].i
			if uint64(idx) >= uint64(len(arr.f32)) {
				panic(errAt(p.ex[pc], "index %d out of range [0,%d)", idx, len(arr.f32)))
			}
			arr.f32[idx] = float32(regs[in.c].f[0])
		case opErr:
			panic(p.errs[in.imm])
		case opHalt:
			return false
		}
		pc++
	}
}
