package clc

// The bytecode optimizer: a pass pipeline between compile.go and vm.go
// that rewrites a compiledKernel into a faster but observably identical
// program. "Observably identical" is a hard contract, checked by the
// raw-vs-optimized differential tests and the engine golden: for every
// input the optimized program must produce bit-identical array
// contents, fault with the byte-identical positioned error whenever
// the original would (and never fault earlier, later, or differently),
// and charge loop fuel at exactly the same back-edges. Every pass below
// is only applied when its legality conditions prove those properties;
// anything unprovable is left untouched, so the optimizer degrades to a
// no-op on code it cannot reason about.
//
// Passes (see DESIGN.md §15 for the legality write-up):
//
//   - convert elision: opConvert/opConvertDyn whose source register
//     provably already has the target type become opMov.
//   - copy/const propagation: reads whose unique in-block reaching
//     definition is an opMov (or opConst) are repointed at the move
//     source (or at a dedicated constant register materialized once in
//     a prologue), which strands the move for DCE.
//   - bounds-check elision: an opCheckIdx is removed when the checked
//     index is a compile-time constant provably inside a statically
//     sized array, or when the next executed instruction is the
//     opStore of the same slot and index register — the store's own
//     internal check raises the byte-identical error, so the explicit
//     check is redundant (the instructions between must be provably
//     non-faulting or the fault order would change).
//   - LICM: provably non-faulting register-only instructions whose
//     operands are not written inside a loop are computed once in a
//     loop preheader into a fresh register; the original instruction
//     becomes an opMov so conditional execution and post-loop register
//     state are preserved exactly.
//   - DCE: provably non-faulting register writes whose destination is
//     dead are dropped. Loads, stores, jumps, barriers, opAllocArr and
//     anything that can fault are never dropped.
//   - superinstruction fusion: adjacent pairs collapse into fused
//     opcodes (opMad, opLoadBin, opBinStore, opLoadStore, opLoadMad,
//     opMadAcc) when the intermediate register is dead afterwards and
//     the fused handler replays the same semantic steps in the same
//     order. Fused instructions carry a second error-position slot
//     (ex2) so each original fault site keeps its own position.
//   - static elision + typed lowering: loads/stores with constant
//     provably in-bounds indexes become unchecked opLoadK/opStoreK;
//     accesses with statically known scalar element and index types
//     become the specialized opLoadD/F, opStoreD/F, opMadAccD/F forms
//     that skip the generic value dispatch (their arithmetic uses
//     explicit float64/float32 conversions at every step the generic
//     path rounds, so results stay bit-identical and no FMA contraction
//     can creep in).
//
// The optimizer never changes the set of opJump instructions, so fuel
// accounting (one charge per backward jump) is structurally identical
// to the unoptimized program.

import (
	"fmt"
	"os"
	"slices"
	"sync"
)

// clcDisableOpt reports whether the CLC_DISABLE_OPT environment
// variable asks for optimizer-off as the process-wide default (the CI
// differential leg). SetOptimize still overrides per kernel.
var clcDisableOpt = sync.OnceValue(func() bool {
	return os.Getenv("CLC_DISABLE_OPT") != ""
})

// optDebugPanic, when set by tests, lets optimizer panics propagate
// instead of falling back to the unoptimized program, so pass bugs
// fail loudly rather than silently costing the speedup.
var optDebugPanic bool

// optimizeKernel returns an optimized copy of p, or p itself when the
// optimizer cannot improve it (or defensively, when a pass panics —
// the unoptimized program is always a correct fallback).
func optimizeKernel(k *KernelDecl, p *compiledKernel) (out *compiledKernel) {
	defer func() {
		if r := recover(); r != nil {
			if optDebugPanic {
				panic(r)
			}
			out = p
		}
	}()
	o := newOptimizer(k, p)
	o.rounds()
	o.rebuild()
	o.analyze()
	o.elideBounds()
	o.lowerTyped()
	return o.finish()
}

// maxRounds bounds the pass rounds. A round that hoists out of a loop
// ends early, so deep loop nests spend one round per hoist.
const maxRounds = 48

// rounds runs the pass pipeline to its fixpoint and reports how many
// rounds ran and whether the last one changed nothing.
func (o *optimizer) rounds() (n int, converged bool) {
	for n < maxRounds {
		n++
		o.analyze()
		changed := o.convertElim()
		if o.copyProp() {
			changed = true
		}
		if o.checkElim() {
			changed = true
		}
		if o.licm() {
			// licm rebuilt the code layout itself; restart the round so
			// every analysis is recomputed against the new pcs.
			continue
		}
		if o.dce() {
			changed = true
		}
		if o.fuse() {
			changed = true
		}
		if !changed {
			return n, true
		}
		o.rebuild()
	}
	return n, false
}

// oinst is the optimizer's working form of one instruction: the instr
// plus both error-position slots and a deletion mark.
type oinst struct {
	in   instr
	ex   Expr
	ex2  Expr // second fault site for fused instructions (nil: same as ex)
	dead bool
}

type optimizer struct {
	decl *KernelDecl
	src  *compiledKernel

	code   []oinst
	consts []value
	types  []Type
	nreg   int

	// Static per-array-slot facts (element type and element count), from
	// the declaration: pointer parameters, hoisted __local arrays, and
	// opAllocArr definitions. The zero Type / length -1 mean unknown.
	arrT   []Type
	arrLen []int

	// Recomputed by analyze.
	jt   []bool // jump targets
	regT []Type // zero Type: no info; baseUnknown: conflicting writers

	// The reaching-definition index, also built by analyze. region[pc]
	// is the first pc of pc's single-entry straight-line region: the
	// nearest jump target at or before pc, or the pc after the nearest
	// live opJump/opHalt/opErr before it. writers[r] lists the pcs of the
	// live instructions writing r, ascending; kill keeps it current.
	region  []int32
	writers [][]int32

	// Dedicated constant registers, materialized as an opConst prologue
	// by finish. Allocated lazily and stable across rounds.
	constOf  map[int32]value
	constReg map[value]int32
	constOrd []int32 // allocation order, for a deterministic prologue

	// Reused across rounds: liveness's bitset slab and row headers, and
	// the spare code buffer that rebuild and hoistInto fill and swap in.
	liveBits []uint64
	liveRows [][]uint64
	spare    []oinst
}

func newOptimizer(k *KernelDecl, p *compiledKernel) *optimizer {
	o := &optimizer{
		decl:     k,
		src:      p,
		code:     make([]oinst, len(p.code)),
		consts:   append([]value(nil), p.consts...),
		types:    append([]Type(nil), p.types...),
		nreg:     p.nreg,
		arrT:     make([]Type, p.narr),
		arrLen:   make([]int, p.narr),
		constOf:  map[int32]value{},
		constReg: map[value]int32{},
	}
	for i := range p.code {
		o.code[i] = oinst{in: p.code[i], ex: p.ex[i]}
	}
	for i := range o.arrLen {
		o.arrLen[i] = -1
	}
	// Pointer parameters: Bind only ever attaches scalar float/double
	// stores (it type-checks the argument against the declared base), so
	// the element type is static; the buffer length is the caller's.
	for i, prm := range k.Params {
		if slot := p.paramArrs[i]; slot >= 0 && (prm.Type.Base == BaseFloat || prm.Type.Base == BaseDouble) {
			o.arrT[slot] = Type{Base: prm.Type.Base, Lanes: 1}
		}
	}
	// Hoisted __local arrays: declared type and constant length.
	ord := 0
	for _, s := range k.Body.Stmts {
		d, ok := s.(*Decl)
		if !ok || d.Space != LocalMem {
			continue
		}
		if ord < len(p.localSlots) {
			slot := p.localSlots[ord]
			if n, err := constFold(d.ArrayLen); err == nil {
				o.arrT[slot] = d.Type
				o.arrLen[slot] = int(n)
			}
		}
		ord++
	}
	// __private arrays: opAllocArr definitions. Each slot has exactly
	// one defining declaration.
	for _, in := range p.code {
		if in.op == opAllocArr {
			def := p.defs[in.imm]
			o.arrT[in.a] = def.t
			o.arrLen[in.a] = def.total / def.t.Lanes
		}
	}
	return o
}

// --- Instruction facts -------------------------------------------------------

// instReads visits every register the instruction reads.
func instReads(in *instr, visit func(int32)) {
	switch in.op {
	case opMov, opBool, opNeg, opNot, opBitNot, opConvert, opConvertDyn, opWI:
		visit(in.a)
	case opBin, opMin, opMax:
		visit(in.a)
		visit(in.b)
	case opVecCtor:
		for l := int32(0); l < in.c; l++ {
			visit(in.a + l)
		}
	case opJumpF, opJumpT:
		visit(in.a)
	case opMad, opLoadMad, opMadAcc, opMadAccD, opMadAccF, opBinStore:
		visit(in.a)
		visit(in.b)
		visit(in.c)
	case opLoad, opCheckIdx, opVload, opLoadD, opLoadF:
		visit(in.b)
	case opStore, opVstore, opLoadStore, opStoreD, opStoreF:
		visit(in.b)
		visit(in.c)
	case opStoreK:
		visit(in.c)
	case opLoadBin:
		visit(in.a)
		visit(in.b)
	}
}

// writesReg reports the register the instruction defines, if any.
func writesReg(in *instr) (int32, bool) {
	switch in.op {
	case opConst, opMov, opBool, opBin, opNeg, opNot, opBitNot, opConvert,
		opConvertDyn, opVecCtor, opWI, opMad, opMin, opMax, opLoad, opVload,
		opLoadK, opLoadBin, opLoadMad, opLoadD, opLoadF:
		return in.dst, true
	}
	return 0, false
}

// rewriteReads applies f to every read-register slot. opVecCtor is
// excluded: its operands form a contiguous block that must not be
// repointed piecemeal.
func rewriteReads(in *instr, f func(int32) int32) {
	switch in.op {
	case opMov, opBool, opNeg, opNot, opBitNot, opConvert, opConvertDyn, opWI:
		in.a = f(in.a)
	case opBin, opMin, opMax:
		in.a = f(in.a)
		in.b = f(in.b)
	case opJumpF, opJumpT:
		in.a = f(in.a)
	case opMad, opLoadMad, opMadAcc, opMadAccD, opMadAccF, opBinStore:
		in.a = f(in.a)
		in.b = f(in.b)
		in.c = f(in.c)
	case opLoad, opCheckIdx, opVload, opLoadD, opLoadF:
		in.b = f(in.b)
	case opStore, opVstore, opLoadStore, opStoreD, opStoreF:
		in.b = f(in.b)
		in.c = f(in.c)
	case opStoreK:
		in.c = f(in.c)
	case opLoadBin:
		in.a = f(in.a)
		in.b = f(in.b)
	}
}

// --- Analysis ----------------------------------------------------------------

func (o *optimizer) analyze() {
	n := len(o.code)
	o.jt = make([]bool, n+1)
	for i := range o.code {
		oi := &o.code[i]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opJump, opJumpF, opJumpT:
			t := int(oi.in.imm)
			if t < 0 || t > n {
				panic(fmt.Errorf("clc: optimizer: jump target %d out of range", t))
			}
			o.jt[t] = true
		}
	}
	o.region = make([]int32, n)
	o.writers = make([][]int32, o.nreg)
	start := int32(0)
	for pc := range o.code {
		if o.jt[pc] {
			start = int32(pc)
		}
		o.region[pc] = start
		oi := &o.code[pc]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opJump, opHalt, opErr:
			start = int32(pc + 1)
		}
		if d, ok := writesReg(&oi.in); ok {
			o.writers[d] = append(o.writers[d], int32(pc))
		}
	}
	o.inferTypes()
}

// kill deletes the instruction at pc, dropping it from the writer index.
// Passes only kill register writers and bounds checks, never control
// flow, so jt and region stay valid until the next analyze.
func (o *optimizer) kill(pc int) {
	oi := &o.code[pc]
	oi.dead = true
	if d, ok := writesReg(&oi.in); ok {
		ws := o.writers[d]
		if i, found := slices.BinarySearch(ws, int32(pc)); found {
			o.writers[d] = slices.Delete(ws, i, i+1)
		}
	}
}

// inferTypes computes, per register, the unique static result type of
// all its writers, via a forward fixpoint. Registers whose writers
// disagree (or whose type depends on unknowable state) end as
// baseUnknown and are excluded from every type-dependent proof.
func (o *optimizer) inferTypes() {
	o.regT = make([]Type, o.nreg)
	seed := func(r int32, t Type) {
		if r >= 0 && int(r) < o.nreg {
			o.regT[r] = t
		}
	}
	// Scalar parameters carry their Bind-checked declared types
	// (compileKernel collapses integer bases to scalar int).
	for i, prm := range o.decl.Params {
		if r := o.src.paramRegs[i]; r >= 0 {
			t := Type{Base: prm.Type.Base, Lanes: 1}
			if prm.Type.IsInt() {
				t = intType
			}
			seed(r, t)
		}
	}
	// Dedicated constant registers have the constant's type.
	for r, v := range o.constOf {
		seed(r, v.t)
	}
	merge := func(r int32, t Type) bool {
		cur := o.regT[r]
		if cur.Base == baseUnknown || t.Base == baseNone {
			return false
		}
		if cur.Base == baseNone {
			o.regT[r] = t
			return true
		}
		if cur != t {
			o.regT[r] = Type{Base: baseUnknown}
			return true
		}
		return false
	}
	for {
		changed := false
		for i := range o.code {
			oi := &o.code[i]
			if oi.dead {
				continue
			}
			if dst, ok := writesReg(&oi.in); ok {
				if merge(dst, o.resultType(&oi.in)) {
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Poison sweep: a register may only keep a known type if every
	// writer's result type is known and agrees; writers whose own
	// operands stayed unknown force baseUnknown (cascading through moves).
	for {
		changed := false
		for i := range o.code {
			oi := &o.code[i]
			if oi.dead {
				continue
			}
			dst, ok := writesReg(&oi.in)
			if !ok {
				continue
			}
			t := o.resultType(&oi.in)
			if !known(t) && known(o.regT[dst]) {
				o.regT[dst] = Type{Base: baseUnknown}
				changed = true
			}
		}
		if !changed {
			break
		}
	}
}

// known reports a usable inferred type.
func known(t Type) bool { return t.Base != baseNone && t.Base != baseUnknown }

// resultType mirrors the VM handlers' result types exactly; the zero
// Type means "not inferable (yet)".
func (o *optimizer) resultType(in *instr) Type {
	return o.resultTypeWith(in, func(r int32) Type { return o.regT[r] })
}

// typeAt resolves the type of register r as read at pc. The global
// regT is flow-insensitive, so the compiler's watermark register reuse
// poisons a register's type whenever unrelated regions assign it
// different types; when that happens, the unique in-block reaching
// definition recovers the locally precise answer.
func (o *optimizer) typeAt(pc int, r int32) Type {
	return o.typeAtDepth(pc, r, 6)
}

func (o *optimizer) typeAtDepth(pc int, r int32, depth int) Type {
	if t := o.regT[r]; known(t) {
		return t
	}
	if depth == 0 {
		return o.regT[r]
	}
	j := o.reachingDef(pc, r)
	if j < 0 {
		return o.regT[r]
	}
	return o.resultTypeWith(&o.code[j].in, func(x int32) Type {
		return o.typeAtDepth(j, x, depth-1)
	})
}

func (o *optimizer) resultTypeWith(in *instr, rt func(int32) Type) Type {
	switch in.op {
	case opConst:
		return o.consts[in.imm].t
	case opMov:
		return rt(in.a)
	case opBool, opNot, opBitNot, opWI:
		return intType
	case opBin:
		a, b := rt(in.a), rt(in.b)
		if !known(a) || !known(b) {
			return Type{}
		}
		return binResultType(in.imm, a, b)
	case opNeg:
		return rt(in.a)
	case opConvert:
		to := o.types[in.imm]
		if to.IsInt() {
			return intType
		}
		return to
	case opConvertDyn:
		et := o.arrT[in.b]
		if !known(et) {
			return Type{}
		}
		if et.IsInt() {
			return intType
		}
		return et
	case opVecCtor:
		return o.types[in.imm]
	case opMad:
		a, b, c := rt(in.a), rt(in.b), rt(in.c)
		if !known(a) || !known(b) || !known(c) {
			return Type{}
		}
		return binResultType(aAdd, binResultType(aMul, a, b), c)
	case opMin, opMax:
		a, b := rt(in.a), rt(in.b)
		if !known(a) || !known(b) {
			return Type{}
		}
		if a.IsInt() && b.IsInt() {
			return intType
		}
		return Type{Base: BaseDouble, Lanes: 1}
	case opLoad, opLoadK:
		return o.arrT[in.a]
	case opVload:
		et := o.arrT[in.a]
		if !known(et) {
			return Type{}
		}
		return Type{Base: et.Base, Lanes: int(in.imm)}
	case opLoadBin:
		op, side, slot := unpackLoadBin(in.imm)
		et, other := o.arrT[slot], rt(in.a)
		if !known(et) || !known(other) {
			return Type{}
		}
		if side == 0 {
			return binResultType(op, et, other)
		}
		return binResultType(op, other, et)
	case opLoadMad:
		a, b := rt(in.a), rt(in.b)
		et := o.arrT[int32(in.imm)]
		if !known(a) || !known(b) || !known(et) {
			return Type{}
		}
		return binResultType(aAdd, binResultType(aMul, a, b), et)
	case opLoadD:
		return Type{Base: BaseDouble, Lanes: 1}
	case opLoadF:
		return Type{Base: BaseFloat, Lanes: 1}
	}
	return Type{}
}

// binResultType mirrors binopInto's promotion rules.
func binResultType(op int64, l, r Type) Type {
	if l.IsInt() && r.IsInt() {
		return intType
	}
	if op >= aLt {
		return intType
	}
	base := BaseFloat
	if l.Base == BaseDouble || r.Base == BaseDouble || l.IsInt() || r.IsInt() {
		base = BaseDouble
		if (l.Base == BaseFloat || r.Base == BaseFloat) && l.Base != BaseDouble && r.Base != BaseDouble {
			base = BaseFloat
		}
	}
	lanes := l.Lanes
	if r.Lanes > lanes {
		lanes = r.Lanes
	}
	return Type{Base: base, Lanes: lanes}
}

// --- Purity / non-faulting proofs --------------------------------------------

// nonFaultingBin proves a binopInto call cannot panic given static
// operand types.
func nonFaultingBin(op int64, l, r Type) bool {
	if !known(l) || !known(r) {
		return false
	}
	if l.IsInt() && r.IsInt() {
		return op != aDiv && op != aMod
	}
	// Float path: bitwise/shift operators fault, vector comparisons
	// fault, mismatched vector widths fault. Float division is total.
	if op >= aLt {
		return l.Lanes == 1 && r.Lanes == 1
	}
	if op != aAdd && op != aSub && op != aMul && op != aDiv {
		return false
	}
	return l.Lanes == 1 || r.Lanes == 1 || l.Lanes == r.Lanes
}

// nonFaultingConvert proves convertInto cannot panic.
func nonFaultingConvert(from, to Type) bool {
	if !known(from) {
		return false
	}
	if from == to {
		return true
	}
	if to.IsInt() {
		return to.Lanes == 1
	}
	return from.Lanes == 1 || from.Lanes == to.Lanes
}

// pureNonFaulting proves the instruction at pc writes only its
// destination register and cannot panic — the DCE/LICM admission test.
func (o *optimizer) pureNonFaulting(pc int, in *instr) bool {
	rt := func(r int32) Type { return o.typeAt(pc, r) }
	switch in.op {
	case opConst, opMov, opBool, opNot, opBitNot, opNeg, opVecCtor, opMin, opMax:
		return true
	case opBin:
		return nonFaultingBin(in.imm, rt(in.a), rt(in.b))
	case opConvert:
		return nonFaultingConvert(rt(in.a), o.types[in.imm])
	case opWI:
		// Faults unless the dimension is a known 0/1 constant.
		v, ok := o.constOf[in.a]
		return ok && v.t.IsInt() && (v.i == 0 || v.i == 1)
	case opMad:
		return nonFaultingBin(aMul, rt(in.a), rt(in.b)) &&
			nonFaultingBin(aAdd, binResultType(aMul, rt(in.a), rt(in.b)), rt(in.c))
	case opLoadK:
		// Emitted only under a static in-bounds proof.
		return true
	}
	return false
}

// --- Liveness ----------------------------------------------------------------

// liveness returns per-pc live-out register bitsets.
func (o *optimizer) liveness() [][]uint64 {
	n := len(o.code)
	words := (o.nreg + 63) / 64
	// One zeroed slab holds live-in rows 0..n, live-out rows 0..n-1 and
	// the scratch row; the slab and the row headers are reused by every
	// call, so the result is valid only until the next one.
	rows := 2*n + 2
	if cap(o.liveBits) < rows*words {
		o.liveBits = make([]uint64, rows*words)
	}
	bits := o.liveBits[:rows*words]
	clear(bits)
	if cap(o.liveRows) < rows {
		o.liveRows = make([][]uint64, rows)
	}
	all := o.liveRows[:rows]
	for i := range all {
		all[i] = bits[i*words : (i+1)*words]
	}
	liveIn, liveOut, scratch := all[:n+1], all[n+1:2*n+1], all[2*n+1]
	succs := func(pc int) (int, int) {
		oi := &o.code[pc]
		if oi.dead {
			return pc + 1, -1
		}
		switch oi.in.op {
		case opJump:
			return int(oi.in.imm), -1
		case opJumpF, opJumpT:
			return pc + 1, int(oi.in.imm)
		case opHalt, opErr:
			return -1, -1
		}
		return pc + 1, -1
	}
	for {
		changed := false
		for pc := n - 1; pc >= 0; pc-- {
			out := liveOut[pc]
			s1, s2 := succs(pc)
			for w := 0; w < words; w++ {
				var v uint64
				if s1 >= 0 && s1 <= n {
					v |= liveIn[s1][w]
				}
				if s2 >= 0 && s2 <= n {
					v |= liveIn[s2][w]
				}
				if out[w] != v {
					out[w] = v
					changed = true
				}
			}
			// Build the full new live-in (out minus def, plus reads) in
			// scratch before comparing, so the fixpoint test sees the
			// final set rather than an intermediate one.
			var def int32 = -1
			oi := &o.code[pc]
			if !oi.dead {
				if d, ok := writesReg(&oi.in); ok {
					def = d
				}
			}
			for w := 0; w < words; w++ {
				v := out[w]
				if def >= 0 && int(def)/64 == w {
					v &^= 1 << (uint(def) % 64)
				}
				scratch[w] = v
			}
			if !oi.dead {
				instReads(&oi.in, func(r int32) {
					scratch[int(r)/64] |= 1 << (uint(r) % 64)
				})
			}
			in := liveIn[pc]
			for w := 0; w < words; w++ {
				if in[w] != scratch[w] {
					in[w] = scratch[w]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return liveOut
}

func bitHas(set []uint64, r int32) bool {
	return set[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// --- Local reaching definitions ----------------------------------------------

// reachingDef finds the unique definition of r that reaches pc within
// its single-entry region, or -1: the last live writer of r before pc,
// provided it lies in pc's region.
func (o *optimizer) reachingDef(pc int, r int32) int {
	if int(r) >= len(o.writers) {
		return -1 // a constant register allocated since analyze: no writer
	}
	ws := o.writers[r]
	i, _ := slices.BinarySearch(ws, int32(pc))
	if i == 0 || ws[i-1] < o.region[pc] {
		return -1
	}
	return int(ws[i-1])
}

// writtenBetween reports whether r is written by a live instruction at
// any pc in (from, to).
func (o *optimizer) writtenBetween(from, to int, r int32) bool {
	if int(r) >= len(o.writers) {
		return false
	}
	ws := o.writers[r]
	i, _ := slices.BinarySearch(ws, int32(from+1))
	return i < len(ws) && int(ws[i]) < to
}

// constRegFor returns the dedicated register holding v, allocating it
// on first use. finish materializes the opConst prologue.
func (o *optimizer) constRegFor(v value) int32 {
	if r, ok := o.constReg[v]; ok {
		return r
	}
	r := int32(o.nreg)
	o.nreg++
	o.constReg[v] = r
	o.constOf[r] = v
	o.constOrd = append(o.constOrd, r)
	// Keep regT in step: passes later in the same round (before the next
	// analyze) index it by this fresh register, whose type is exact.
	o.regT = append(o.regT, v.t)
	return r
}

// constIntOf reports the compile-time scalar integer value of r, if r
// is a dedicated constant register holding one.
func (o *optimizer) constIntOf(r int32) (int64, bool) {
	v, ok := o.constOf[r]
	if !ok || !v.t.IsInt() || v.t.Lanes != 1 {
		return 0, false
	}
	return v.i, true
}

// --- Passes ------------------------------------------------------------------

// convertElim turns provably no-op conversions into moves.
func (o *optimizer) convertElim() bool {
	changed := false
	for i := range o.code {
		oi := &o.code[i]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opConvert:
			from, to := o.typeAt(i, oi.in.a), o.types[oi.in.imm]
			if known(from) && from == to {
				oi.in = instr{op: opMov, dst: oi.in.dst, a: oi.in.a}
				changed = true
			}
		case opConvertDyn:
			from, et := o.typeAt(i, oi.in.a), o.arrT[oi.in.b]
			if known(from) && known(et) && from == et {
				oi.in = instr{op: opMov, dst: oi.in.dst, a: oi.in.a}
				changed = true
			}
		}
	}
	return changed
}

// copyProp repoints reads through opMov chains and at dedicated
// constant registers.
func (o *optimizer) copyProp() bool {
	changed := false
	for pc := range o.code {
		oi := &o.code[pc]
		if oi.dead || oi.in.op == opVecCtor {
			continue
		}
		rewriteReads(&oi.in, func(r int32) int32 {
			j := o.reachingDef(pc, r)
			if j < 0 {
				return r
			}
			d := &o.code[j].in
			switch d.op {
			case opMov:
				if d.a != r && !o.writtenBetween(j, pc, d.a) {
					changed = true
					return d.a
				}
			case opConst:
				cr := o.constRegFor(o.consts[d.imm])
				if cr != r {
					changed = true
					return cr
				}
			}
			return r
		})
	}
	return changed
}

// checkElim removes opCheckIdx instructions proven redundant: constant
// indexes statically inside statically sized arrays, and checks whose
// fault (if any) would be raised byte-identically by the opStore of the
// same slot and index that follows with only provably non-faulting
// instructions in between.
func (o *optimizer) checkElim() bool {
	changed := false
	for i := range o.code {
		oi := &o.code[i]
		if oi.dead || oi.in.op != opCheckIdx {
			continue
		}
		slot, idxr := oi.in.a, oi.in.b
		if k, ok := o.constIntOf(idxr); ok && o.arrLen[slot] >= 0 && k >= 0 && k < int64(o.arrLen[slot]) {
			o.kill(i)
			changed = true
			continue
		}
		// Walk forward to the matching store. Every instruction between
		// must be provably non-faulting (else the fault order would
		// change), must not jump, touch the index register, or reallocate
		// any array.
		for j := i + 1; j < len(o.code); j++ {
			if o.jt[j] {
				break
			}
			nj := &o.code[j]
			if nj.dead {
				continue
			}
			if nj.in.op == opStore && nj.in.a == slot && nj.in.b == idxr {
				o.kill(i)
				changed = true
				break
			}
			if !o.pureNonFaulting(j, &nj.in) {
				break
			}
			if d, ok := writesReg(&nj.in); ok && d == idxr {
				break
			}
		}
	}
	return changed
}

// dce removes provably non-faulting register writes whose destination
// is dead.
func (o *optimizer) dce() bool {
	live := o.liveness()
	changed := false
	for pc := range o.code {
		oi := &o.code[pc]
		if oi.dead {
			continue
		}
		dst, ok := writesReg(&oi.in)
		if !ok || bitHas(live[pc], dst) {
			continue
		}
		if o.pureNonFaulting(pc, &oi.in) {
			o.kill(pc)
			changed = true
		}
	}
	return changed
}

// --- Superinstruction fusion -------------------------------------------------

// Fused imm packers. opLoadBin packs operator | side<<8 | slot<<16
// (side 0: the loaded element is the left operand); opBinStore packs
// operator | slot<<16; opLoadStore packs srcSlot | dstSlot<<16.
func packLoadBin(op int64, side int64, slot int32) int64 {
	return op | side<<8 | int64(slot)<<16
}

func unpackLoadBin(imm int64) (op, side int64, slot int32) {
	return imm & 0xff, (imm >> 8) & 1, int32(imm >> 16)
}

func packBinStore(op int64, slot int32) int64 { return op | int64(slot)<<16 }

func unpackBinStore(imm int64) (op int64, slot int32) { return imm & 0xff, int32(imm >> 16) }

func packLoadStore(src, dst int32) int64 { return int64(src) | int64(dst)<<16 }

func unpackLoadStore(imm int64) (src, dst int32) { return int32(imm & 0xffff), int32(imm >> 16) }

// fuse collapses adjacent instruction pairs into superinstructions.
// Adjacency means: the second instruction is the next live one, and no
// jump target lands between them (so both always execute together).
// The intermediate register must be dead after the pair and must not be
// read by the fused form at a stale position.
func (o *optimizer) fuse() bool {
	live := o.liveness()
	changed := false
	for i := 0; i < len(o.code); i++ {
		a := &o.code[i]
		if a.dead {
			continue
		}
		// Find the next live instruction j with no entry point between.
		j := -1
		for p := i + 1; p < len(o.code); p++ {
			if o.jt[p] {
				break
			}
			if !o.code[p].dead {
				j = p
				break
			}
		}
		if j < 0 {
			continue
		}
		b := &o.code[j]
		if o.fusePair(a, b, i, j, live) {
			changed = true
			i = j // never re-fuse the rewritten second instruction this round
		}
	}
	return changed
}

func (o *optimizer) fusePair(a, b *oinst, i, j int, live [][]uint64) bool {
	ex2Of := func(oi *oinst) Expr {
		if oi.ex2 != nil {
			return oi.ex2
		}
		return oi.ex
	}
	deadAfter := func(r int32) bool { return !bitHas(live[j], r) }

	switch {
	// opBin(mul) + opBin(add) -> opMad, when the product is the add's
	// LEFT operand (the fused handler computes prod+c in that order, so
	// fusing the right operand could flip NaN-payload propagation).
	case a.in.op == opBin && a.in.imm == aMul && b.in.op == opBin && b.in.imm == aAdd &&
		b.in.a == a.in.dst && b.in.b != a.in.dst &&
		a.in.dst != a.in.a && a.in.dst != a.in.b && deadAfter(a.in.dst):
		b.in = instr{op: opMad, dst: b.in.dst, a: a.in.a, b: a.in.b, c: b.in.b}
		b.ex2 = a.ex // the mul's fault position
		o.kill(i)
		return true

	// opLoad + opMad(c=loaded) -> opLoadMad. Only for an unfused opMad
	// (ex2 empty): a previously fused mul/add pair would need a third
	// error slot.
	case a.in.op == opLoad && b.in.op == opMad && b.ex2 == nil &&
		b.in.c == a.in.dst && b.in.a != a.in.dst && b.in.b != a.in.dst &&
		a.in.dst != a.in.b && deadAfter(a.in.dst):
		b.in = instr{op: opLoadMad, dst: b.in.dst, a: b.in.a, b: b.in.b, c: a.in.b, imm: int64(a.in.a)}
		b.ex2 = a.ex // the load's fault position
		o.kill(i)
		return true

	// opLoadMad + opStore of the same slot and index register through
	// the mad result -> opMadAcc (the read-modify-write accumulator
	// update). The store's own bounds check cannot fire: the load of
	// the same element already succeeded.
	case a.in.op == opLoadMad && b.in.op == opStore &&
		int64(b.in.a) == a.in.imm && b.in.b == a.in.c && b.in.c == a.in.dst &&
		a.in.dst != a.in.a && a.in.dst != a.in.b && a.in.dst != a.in.c &&
		deadAfter(a.in.dst):
		b.in = instr{op: opMadAcc, a: a.in.a, b: a.in.b, c: a.in.c, imm: a.in.imm}
		b.ex = a.ex // the mad's fault position
		b.ex2 = ex2Of(a)
		o.kill(i)
		return true

	// opLoad + opBin using the loaded value on exactly one side ->
	// opLoadBin.
	case a.in.op == opLoad && b.in.op == opBin &&
		(b.in.a == a.in.dst) != (b.in.b == a.in.dst) &&
		a.in.dst != a.in.b && deadAfter(a.in.dst):
		other, side := b.in.b, int64(0)
		if b.in.b == a.in.dst {
			other, side = b.in.a, 1
		}
		if other == a.in.dst {
			return false
		}
		b.in = instr{op: opLoadBin, dst: b.in.dst, a: other, b: a.in.b,
			imm: packLoadBin(b.in.imm, side, a.in.a)}
		b.ex2 = a.ex
		o.kill(i)
		return true

	// opBin + opStore of the result -> opBinStore.
	case a.in.op == opBin && b.in.op == opStore && b.in.c == a.in.dst &&
		a.in.dst != a.in.a && a.in.dst != a.in.b && a.in.dst != b.in.b &&
		deadAfter(a.in.dst):
		b.in = instr{op: opBinStore, a: a.in.a, b: a.in.b, c: b.in.b,
			imm: packBinStore(a.in.imm, b.in.a)}
		b.ex2 = a.ex
		o.kill(i)
		return true

	// opLoad + opStore of the loaded value -> opLoadStore (array copy).
	case a.in.op == opLoad && b.in.op == opStore && b.in.c == a.in.dst &&
		a.in.dst != a.in.b && a.in.dst != b.in.b && deadAfter(a.in.dst):
		b.in = instr{op: opLoadStore, b: a.in.b, c: b.in.b,
			imm: packLoadStore(a.in.a, b.in.a)}
		b.ex2 = a.ex
		o.kill(i)
		return true
	}
	return false
}

// --- Loop-invariant code motion ----------------------------------------------

// licm hoists provably non-faulting register-only instructions whose
// operands are loop-invariant into a freshly inserted preheader. The
// hoisted computation lands in a fresh register; the original
// instruction becomes an opMov from it, so conditional execution inside
// the loop and post-loop register state are byte-identical (the
// preheader instructions cannot fault and write only fresh registers).
// One loop is transformed per call; the pipeline loop re-runs until
// nothing moves.
func (o *optimizer) licm() bool {
	type loop struct{ top, end int }
	var loops []loop
	for pc := range o.code {
		oi := &o.code[pc]
		if oi.dead || oi.in.op != opJump {
			continue
		}
		if t := int(oi.in.imm); t <= pc {
			loops = append(loops, loop{top: t, end: pc})
		}
	}
	// Innermost (smallest) loops first: their invariants often become
	// hoistable from the enclosing loop on later rounds.
	for i := 1; i < len(loops); i++ {
		for j := i; j > 0 && loops[j].end-loops[j].top < loops[j-1].end-loops[j-1].top; j-- {
			loops[j], loops[j-1] = loops[j-1], loops[j]
		}
	}
	for _, l := range loops {
		written := make([]bool, o.nreg)
		for pc := l.top; pc <= l.end; pc++ {
			oi := &o.code[pc]
			if oi.dead {
				continue
			}
			if d, ok := writesReg(&oi.in); ok {
				written[d] = true
			}
		}
		var hoist []int
		for pc := l.top; pc <= l.end; pc++ {
			oi := &o.code[pc]
			if oi.dead || oi.in.op == opMov || oi.in.op == opConst {
				continue
			}
			if !o.pureNonFaulting(pc, &oi.in) {
				continue
			}
			invariant := true
			instReads(&oi.in, func(r int32) {
				if int(r) < len(written) && written[r] {
					invariant = false
				}
			})
			if invariant {
				hoist = append(hoist, pc)
			}
		}
		if len(hoist) > 0 {
			o.hoistInto(l.top, l.end, hoist)
			return true
		}
	}
	return false
}

// hoistInto inserts a preheader before top containing the hoisted
// instructions retargeted at fresh registers, rewrites the originals to
// moves, and remaps every jump. Jumps into the loop head from outside
// route through the preheader; back-edges from inside skip it.
func (o *optimizer) hoistInto(top, end int, hoist []int) {
	// hoist is ascending; hoist[i] moves into fresh register first+i.
	k := len(hoist)
	first := int32(o.nreg)
	o.nreg += k
	mapPC := func(t int64, src int) int64 {
		switch {
		case int(t) < top:
			return t
		case int(t) > top:
			return t + int64(k)
		case src >= top: // back-edge: skip the preheader
			return t + int64(k)
		default:
			return t
		}
	}
	if cap(o.spare) < len(o.code)+k {
		// Headroom, so the next hoists fit without regrowing.
		o.spare = make([]oinst, 0, (len(o.code)+k)*5/4)
	}
	newCode := append(o.spare[:0], o.code[:top]...)
	for i, pc := range hoist {
		h := o.code[pc]
		h.in.dst = first + int32(i)
		h.dead = false
		newCode = append(newCode, h)
	}
	next := 0
	for pc := top; pc < len(o.code); pc++ {
		oi := o.code[pc]
		if next < k && hoist[next] == pc {
			oi = oinst{in: instr{op: opMov, dst: oi.in.dst, a: first + int32(next)}, ex: oi.ex}
			next++
		}
		newCode = append(newCode, oi)
	}
	for pc := range newCode {
		oi := &newCode[pc]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opJump, opJumpF, opJumpT:
			// Recover the source's old pc to classify back-edges.
			src := pc
			if pc >= top+k {
				src = pc - k
			} else if pc >= top {
				src = -1 // preheader instructions never jump
			}
			oi.in.imm = mapPC(oi.in.imm, src)
		}
	}
	o.code, o.spare = newCode, o.code
}

// --- Static bounds elision and typed lowering --------------------------------

// elideBounds rewrites loads/stores whose index is a compile-time
// constant provably inside a statically sized array into the unchecked
// opLoadK/opStoreK forms.
func (o *optimizer) elideBounds() {
	for i := range o.code {
		oi := &o.code[i]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opLoad:
			if k, ok := o.constIntOf(oi.in.b); ok && o.arrLen[oi.in.a] >= 0 && k >= 0 && k < int64(o.arrLen[oi.in.a]) {
				oi.in = instr{op: opLoadK, dst: oi.in.dst, a: oi.in.a, imm: k}
			}
		case opStore:
			if k, ok := o.constIntOf(oi.in.b); ok && o.arrLen[oi.in.a] >= 0 && k >= 0 && k < int64(o.arrLen[oi.in.a]) {
				oi.in = instr{op: opStoreK, a: oi.in.a, c: oi.in.c, imm: k}
			}
		}
	}
}

// lowerTyped specializes generic array accesses to the scalar
// double/float fast forms when every type involved is statically
// proven. The specialized handlers keep bounds checks (same message)
// but skip the generic value dispatch.
func (o *optimizer) lowerTyped() {
	scalar := func(t Type, base BaseType) bool { return t.Base == base && t.Lanes == 1 }
	for i := range o.code {
		oi := &o.code[i]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opLoad:
			et := o.arrT[oi.in.a]
			if o.typeAt(i, oi.in.b) == intType {
				if scalar(et, BaseDouble) {
					oi.in.op = opLoadD
				} else if scalar(et, BaseFloat) {
					oi.in.op = opLoadF
				}
			}
		case opStore:
			et := o.arrT[oi.in.a]
			if o.typeAt(i, oi.in.b) == intType && o.typeAt(i, oi.in.c) == et {
				if scalar(et, BaseDouble) {
					oi.in.op = opStoreD
				} else if scalar(et, BaseFloat) {
					oi.in.op = opStoreF
				}
			}
		case opMadAcc:
			et := o.arrT[int32(oi.in.imm)]
			if o.typeAt(i, oi.in.c) == intType &&
				scalar(o.typeAt(i, oi.in.a), et.Base) && scalar(o.typeAt(i, oi.in.b), et.Base) {
				if scalar(et, BaseDouble) {
					oi.in.op = opMadAccD
				} else if scalar(et, BaseFloat) {
					oi.in.op = opMadAccF
				}
			}
		}
	}
}

// --- Rebuild and finish ------------------------------------------------------

// rebuild compacts away dead instructions and remaps jump targets. A
// target that was itself removed maps to the next surviving pc, which
// is exactly where control resumes.
func (o *optimizer) rebuild() {
	n := len(o.code)
	mapping := make([]int64, n+1)
	kept := 0
	for pc := 0; pc < n; pc++ {
		mapping[pc] = int64(kept)
		if !o.code[pc].dead {
			kept++
		}
	}
	mapping[n] = int64(kept)
	if kept == n {
		return
	}
	newCode := o.spare[:0]
	for pc := 0; pc < n; pc++ {
		oi := o.code[pc]
		if oi.dead {
			continue
		}
		switch oi.in.op {
		case opJump, opJumpF, opJumpT:
			oi.in.imm = mapping[oi.in.imm]
		}
		newCode = append(newCode, oi)
	}
	o.code, o.spare = newCode, o.code
}

// finish materializes the constant prologue and emits the final
// compiledKernel. Every jump shifts past the prologue; the prologue
// itself is pure loads of the constant pool, so fuel accounting and
// fault behavior are untouched.
func (o *optimizer) finish() *compiledKernel {
	o.rebuild()
	k := len(o.constOrd)
	np := &compiledKernel{
		consts:     o.consts,
		types:      o.types,
		defs:       o.src.defs,
		errs:       o.src.errs,
		nreg:       o.nreg,
		narr:       o.src.narr,
		paramRegs:  o.src.paramRegs,
		paramArrs:  o.src.paramArrs,
		localSlots: o.src.localSlots,
		slotT:      o.src.slotT,
	}
	np.code = make([]instr, 0, len(o.code)+k)
	np.ex = make([]Expr, 0, len(o.code)+k)
	np.ex2 = make([]Expr, 0, len(o.code)+k)
	for _, r := range o.constOrd {
		v := o.constOf[r]
		o.consts = append(o.consts, v)
		np.code = append(np.code, instr{op: opConst, dst: r, imm: int64(len(o.consts) - 1)})
		np.ex = append(np.ex, nil)
		np.ex2 = append(np.ex2, nil)
	}
	np.consts = o.consts
	for _, oi := range o.code {
		in := oi.in
		switch in.op {
		case opJump, opJumpF, opJumpT:
			in.imm += int64(k)
		}
		np.code = append(np.code, in)
		np.ex = append(np.ex, oi.ex)
		if oi.ex2 != nil {
			np.ex2 = append(np.ex2, oi.ex2)
		} else {
			np.ex2 = append(np.ex2, oi.ex)
		}
	}
	np.layoutLanes()
	return np
}
