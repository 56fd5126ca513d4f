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
// Each pass runs once, in the order run lists, and its comment states
// when it applies (DESIGN.md §15 has the legality write-up): convert
// elision, propagation (copies, constants and value numbering), bounds-
// check elision, LICM out of every loop, DCE, multiply-accumulate fusion
// and register renumbering. Liveness is solved once, over basic blocks;
// DCE, fusion and renumbering take it per instruction by walking a
// block backward from its live-out set.
//
// Every proof reads the program's static register types (regT), which
// the compiler fixes: each register keeps one type, and a register the
// optimizer adds takes the type of the value it holds. A type fault is
// already an opErr, so only integer division and modulo, work-item
// queries and memory accesses can fault.
//
// The compiler gives every value a register of its own and every
// constant one register, written by an opConst in the prologue at pc 0
// and nowhere else. Renumbering is the one place registers are shared.
//
// The optimizer never changes the set of opJump instructions, so fuel
// accounting (one charge per backward jump) is structurally identical
// to the unoptimized program.

import (
	"fmt"
	"math/bits"
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
	o.run()
	return o.finish()
}

// run applies the passes in an order under which none leaves work for
// an earlier one: propagation feeds the constant and copy facts that
// bounds-check elision and LICM prove with, LICM's moves and repeated
// preheader values are propagated over the new layout, and DCE's
// liveness serves fusion and renumbering too.
func (o *optimizer) run() {
	o.analyze()
	o.convertElim()
	o.propagate()
	o.checkElim()
	if o.licm() {
		o.analyze()
		o.propagate()
	}
	o.liveness()
	o.dce()
	o.fuse()
}

// oinst is the optimizer's working form of one instruction: the instr,
// its fault positions as pcs of the source program's ex (ex2, the
// second fault site, differs from ex only in a fused instruction), and a
// deletion mark. Pcs keep pointers out of the working code, so the
// collector never scans it.
type oinst struct {
	in      instr
	ex, ex2 int32
	dead    bool
}

type optimizer struct {
	src *compiledKernel

	code []oinst
	nreg int
	regT []Type // each register's static type

	// Each array slot's element count, from its declaration: hoisted
	// __local arrays and opAllocArr definitions; -1 for buffers.
	arrLen []int

	// Recomputed by analyze whenever the layout changes: the jump
	// targets, and the basic blocks, block b spanning pcs
	// [starts[b], starts[b+1]).
	jt     []bool
	starts []int32

	// liveness's result: each block's live-in register set, a row of
	// words bits, and one scratch row. sweeps counts the backward sweeps
	// its fixpoint took.
	words  int
	liveIn []uint64
	sweeps int

	// constOf maps each constant register, one per pool entry and
	// written only by its opConst in the compiler's prologue, to its pool
	// index. The compiler stores each constant once, so a pool index
	// names its bit pattern.
	constOf map[int32]int64

	// licm's preheader registers are [freshLo, freshHi): each is
	// written once, by its preheader instruction, and read only after
	// it, inside the loop the preheader enters.
	freshLo, freshHi int32

	// propagate's state, sized once per kernel (see propagate).
	written, copyAt []uint32
	copyOf          []int32
	vn              map[vnKey]vnVal
}

func newOptimizer(k *KernelDecl, p *compiledKernel) *optimizer {
	o := &optimizer{
		src:     p,
		code:    make([]oinst, len(p.code), len(p.code)*5/4), // room for preheaders
		nreg:    p.nreg,
		regT:    slices.Clone(p.regT),
		arrLen:  slices.Repeat([]int{-1}, p.narr),
		constOf: make(map[int32]int64, len(p.consts)),
	}
	for i := range p.code {
		o.code[i] = oinst{in: p.code[i], ex: int32(i), ex2: int32(i)}
	}
	// Hoisted __local arrays: constant length.
	ord := 0
	for _, s := range k.Body.Stmts {
		d, ok := s.(*Decl)
		if !ok || d.Space != LocalMem {
			continue
		}
		if ord < len(p.localSlots) {
			slot := p.localSlots[ord]
			if n, err := constFold(d.ArrayLen); err == nil {
				o.arrLen[slot] = int(n)
			}
		}
		ord++
	}
	// __private arrays: opAllocArr definitions. Each slot has exactly
	// one defining declaration.
	for _, in := range p.code {
		switch in.op {
		case opAllocArr:
			def := p.defs[in.imm]
			o.arrLen[in.a] = def.total / def.t.Lanes
		case opConst:
			o.constOf[in.dst] = in.imm
		}
	}
	return o
}

// --- Instruction facts -------------------------------------------------------

// instReads visits every register the instruction reads.
func instReads(in *instr, visit func(int32)) {
	if in.op == opVecCtor {
		for l := int32(0); l < in.c; l++ {
			visit(in.a + l)
		}
		return
	}
	c := *in
	rewriteReads(&c, func(r int32) int32 { visit(r); return r })
}

// writesReg reports the register the instruction defines, if any.
func writesReg(in *instr) (int32, bool) {
	switch in.op {
	case opConst, opMov, opBool, opBin, opNeg, opNot, opBitNot, opConvert,
		opVecCtor, opWI, opMad, opMin, opMax, opLoad, opVload, opLoadMad:
		return in.dst, true
	}
	return 0, false
}

// rewriteReads applies f to every read-register slot. opVecCtor is
// excluded: its operands form a contiguous block that must not be
// repointed piecemeal.
func rewriteReads(in *instr, f func(int32) int32) {
	switch in.op {
	case opMov, opBool, opNeg, opNot, opBitNot, opConvert, opWI:
		in.a = f(in.a)
	case opBin, opMin, opMax:
		in.a = f(in.a)
		in.b = f(in.b)
	case opJumpF, opJumpT:
		in.a = f(in.a)
	case opMad, opLoadMad, opMadAcc:
		in.a = f(in.a)
		in.b = f(in.b)
		in.c = f(in.c)
	case opLoad, opCheckIdx, opVload:
		in.b = f(in.b)
	case opStore, opVstore:
		in.b = f(in.b)
		in.c = f(in.c)
	}
}

// --- Analysis ----------------------------------------------------------------

// analyze finds the jump targets and the basic blocks: a block starts at
// pc 0, at every jump target and after every jump, opHalt and opErr.
// Passes kill only register writers and bounds checks and never touch
// control flow, so both stay valid until licm moves code.
func (o *optimizer) analyze() {
	n := len(o.code)
	o.jt = slices.Grow(o.jt[:0], n+1)[:n+1]
	clear(o.jt)
	for i := range o.code {
		oi := &o.code[i]
		switch oi.in.op {
		case opJump, opJumpF, opJumpT:
			t := int(oi.in.imm)
			if t < 0 || t > n {
				panic(fmt.Errorf("clc: optimizer: jump target %d out of range", t))
			}
			o.jt[t] = true
		}
	}
	o.starts = o.starts[:0]
	cut := true // the previous instruction ends a block
	for pc := range o.code {
		if cut || o.jt[pc] {
			o.starts = append(o.starts, int32(pc))
		}
		op := o.code[pc].in.op
		cut = op == opJump || op == opJumpF || op == opJumpT || op == opHalt || op == opErr
	}
	o.starts = append(o.starts, int32(n))
}

// kill deletes the instruction at pc.
func (o *optimizer) kill(pc int) { o.code[pc].dead = true }

// --- Purity / non-faulting proofs --------------------------------------------

// pureNonFaulting proves the instruction writes only its destination
// register and cannot fault — the DCE/LICM admission test. Type faults
// are opErrs, so of the register-only instructions only an integer
// division or modulo (by zero) and a work-item query can fault.
func (o *optimizer) pureNonFaulting(in *instr) bool {
	switch in.op {
	case opConst, opMov, opBool, opNot, opBitNot, opNeg, opConvert, opVecCtor, opMad, opMin, opMax:
		return true
	case opBin:
		if !o.regT[in.a].IsInt() || in.imm != aDiv && in.imm != aMod {
			return true
		}
		// A constant divisor is safe unless it is 0; -1 is left out too,
		// since INT_MIN / -1 overflows.
		v, ok := o.constIntOf(in.b)
		return ok && v != 0 && v != -1
	case opWI:
		// Faults unless the dimension is a known 0/1 constant.
		v, ok := o.constIntOf(in.a)
		return ok && (v == 0 || v == 1)
	}
	return false
}

// --- Liveness ----------------------------------------------------------------

// blockAt returns the block starting at jump target t, or -1 for the
// end of the program.
func (o *optimizer) blockAt(t int64) int {
	b, _ := slices.BinarySearch(o.starts, int32(t))
	if b == len(o.starts)-1 {
		return -1
	}
	return b
}

func (o *optimizer) row(b int) []uint64 { return o.liveIn[b*o.words : (b+1)*o.words] }

// liveOut sets out to block b's live-out set: the union of its
// successors' live-in sets.
func (o *optimizer) liveOut(b int, out []uint64) {
	clear(out)
	succ := [2]int{o.blockAt(int64(o.starts[b+1])), -1}
	if last := &o.code[o.starts[b+1]-1]; !last.dead {
		switch last.in.op {
		case opJump:
			succ[0] = o.blockAt(last.in.imm)
		case opJumpF, opJumpT:
			succ[1] = o.blockAt(last.in.imm)
		case opHalt, opErr:
			succ[0] = -1
		}
	}
	for _, s := range succ {
		if s >= 0 {
			for w, x := range o.row(s) {
				out[w] |= x
			}
		}
	}
}

// back steps live, the live set after the instruction at pc, to the set
// before it, and reports whether the instruction is a dead write DCE
// may drop: a provably non-faulting write to a register not live after
// it. Such a write reads nothing, so a chain of dead values dies at
// once.
func (o *optimizer) back(pc int, live []uint64) (dead bool) {
	oi := &o.code[pc]
	if oi.dead {
		return false
	}
	if d, ok := writesReg(&oi.in); ok {
		if !bitHas(live, d) && o.pureNonFaulting(&oi.in) {
			return true
		}
		live[d/64] &^= 1 << (uint(d) % 64)
	}
	instReads(&oi.in, func(r int32) { live[r/64] |= 1 << (uint(r) % 64) })
	return false
}

// liveness solves each block's live-in set by backward sweeps over the
// blocks to the fixpoint; a loop nest needs about one sweep per level.
// A dead write's reads do not count (see back), so after dce drops
// those writes the sets are the program's plain liveness. Fusion since
// only moves or drops reads within a block, so fuse and renumber use
// the same sets.
func (o *optimizer) liveness() {
	nb := len(o.starts) - 1
	o.words = (o.nreg + 63) / 64
	need := (nb + 1) * o.words
	if cap(o.liveIn) < need {
		o.liveIn = make([]uint64, need)
	}
	o.liveIn = o.liveIn[:need]
	clear(o.liveIn)
	cur := o.row(nb)
	for changed := true; changed; {
		changed = false
		o.sweeps++
		for b := nb - 1; b >= 0; b-- {
			o.liveOut(b, cur)
			for pc := int(o.starts[b+1]) - 1; pc >= int(o.starts[b]); pc-- {
				o.back(pc, cur)
			}
			if row := o.row(b); !slices.Equal(row, cur) {
				copy(row, cur)
				changed = true
			}
		}
	}
}

func bitHas(set []uint64, r int32) bool {
	return set[int(r)/64]&(1<<(uint(r)%64)) != 0
}

// constIntOf reports the compile-time scalar integer value of r, if r
// is a constant register holding one.
func (o *optimizer) constIntOf(r int32) (int64, bool) {
	k, ok := o.constOf[r]
	if !ok {
		return 0, false
	}
	v := &o.src.consts[k]
	return v.i, v.t.IsInt() && v.t.Lanes == 1
}

// --- Passes ------------------------------------------------------------------

// convertElim turns provably no-op conversions into moves.
func (o *optimizer) convertElim() {
	for i := range o.code {
		oi := &o.code[i]
		if !oi.dead && oi.in.op == opConvert && o.regT[oi.in.a] == o.src.types[oi.in.imm] {
			oi.in = instr{op: opMov, dst: oi.in.dst, a: oi.in.a}
		}
	}
}

// vnKey names the value a pure instruction computes: its opcode, its
// operator, type or query index (all small) and its operand registers
// (unused fields are 0). The compiler stores each constant once, so an
// operand that is a constant register names the constant's bit
// pattern: 0.0 and -0.0 never share a number.
type vnKey struct {
	op      opcode
	imm     int32
	a, b, c int32
}

// vnVal is the register that held a numbered value and the clock of the
// write that put it there.
type vnVal struct {
	reg int32
	at  uint32
}

// propagate walks each single-entry region forward: a region starts at
// a jump target or after an opJump, opHalt or opErr, so its
// instructions run in order whenever its first one does. Every write
// ticks a clock, and written[r] is the clock of r's latest write, so a
// fact recorded at clock t still holds while its registers keep writes
// older than t and t is inside the region. The walk repoints each read
// of a register that copies another (an opMov's destination) at the
// source, turns an integer x+0, x-0 or x*1 into a copy (passes), and
// looks each pure, non-faulting instruction's value up in the value
// table: one the region still holds turns the instruction into an
// opMov from its holder. When both are licm preheader
// registers, each written once, the later one is renamed to the
// earlier everywhere and its instruction dropped, so an invariant that
// several loops hoisted is computed once.
func (o *optimizer) propagate() {
	nr := o.nreg
	if cap(o.written) < nr {
		// Sized once per kernel: licm adds at most one register per
		// instruction.
		c := nr + len(o.code)
		o.written, o.copyAt, o.copyOf = make([]uint32, c), make([]uint32, c), make([]int32, c)
		o.vn = make(map[vnKey]vnVal, len(o.code)/4)
	}
	written, copyAt, copyOf := o.written[:nr], o.copyAt[:nr], o.copyOf[:nr]
	clear(written)
	clear(copyAt)
	clear(o.vn)
	rename := slices.Repeat([]int32{-1}, int(o.freshHi-o.freshLo))
	fresh := func(r int32) bool { return r >= o.freshLo && r < o.freshHi }
	var clock, region uint32
	resolve := func(r int32) int32 {
		if fresh(r) && rename[r-o.freshLo] >= 0 {
			r = rename[r-o.freshLo]
		}
		if t := copyAt[r]; t > region && written[r] == t && written[copyOf[r]] < t {
			return copyOf[r]
		}
		return r
	}
	opensRegion := true
	for pc := range o.code {
		if opensRegion || o.jt[pc] {
			clock++
			region, opensRegion = clock, false
		}
		oi := &o.code[pc]
		if oi.dead {
			continue
		}
		in := &oi.in
		rewriteReads(in, resolve)
		switch in.op {
		case opJump, opHalt, opErr:
			opensRegion = true
		}
		d, ok := writesReg(in)
		if !ok {
			continue
		}
		if s := o.passes(in); s >= 0 {
			*in = instr{op: opMov, dst: d, a: s}
		}
		clock++
		switch {
		case in.op == opMov && in.a == d:
			o.kill(pc)
			continue
		case in.op == opMov:
			copyOf[d], copyAt[d] = in.a, clock
		case in.op != opVecCtor && o.pureNonFaulting(in):
			k := vnKey{op: in.op, imm: int32(in.imm), a: in.a, b: in.b, c: in.c}
			v, held := o.vn[k]
			held = held && v.at > region && written[v.reg] == v.at
			if held {
				instReads(in, func(r int32) { held = held && written[r] < v.at })
			}
			switch {
			case !held:
				o.vn[k] = vnVal{d, clock}
			case v.reg == d:
				o.kill(pc) // d already holds the value
				continue
			case fresh(d) && fresh(v.reg):
				rename[d-o.freshLo] = v.reg
				o.kill(pc)
				continue
			default:
				*in = instr{op: opMov, dst: d, a: v.reg}
				copyOf[d], copyAt[d] = v.reg, clock
			}
		}
		written[d] = clock
	}
}

// passes reports the operand an integer opBin passes on unchanged —
// x+0, 0+x, x-0, x*1 and 1*x — or -1.
func (o *optimizer) passes(in *instr) int32 {
	var unit int64
	switch {
	case in.op != opBin || !o.regT[in.a].IsInt():
		return -1
	case in.imm == aMul:
		unit = 1
	case in.imm != aAdd && in.imm != aSub:
		return -1
	}
	if v, ok := o.constIntOf(in.b); ok && v == unit {
		return in.a
	}
	if v, ok := o.constIntOf(in.a); ok && v == unit && in.imm != aSub {
		return in.b
	}
	return -1
}

// checkElim removes opCheckIdx instructions proven redundant: constant
// indexes statically inside statically sized arrays, and checks whose
// fault (if any) would be raised byte-identically by the opStore of the
// same slot and index that follows with only provably non-faulting
// instructions in between.
func (o *optimizer) checkElim() {
	for i := range o.code {
		oi := &o.code[i]
		if oi.dead || oi.in.op != opCheckIdx {
			continue
		}
		slot, idxr := oi.in.a, oi.in.b
		if k, ok := o.constIntOf(idxr); ok && o.arrLen[slot] >= 0 && k >= 0 && k < int64(o.arrLen[slot]) {
			o.kill(i)
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
				break
			}
			if !o.pureNonFaulting(&nj.in) {
				break
			}
			if d, ok := writesReg(&nj.in); ok && d == idxr {
				break
			}
		}
	}
}

// dce removes provably non-faulting register writes whose destination
// is dead, walking each block backward from its live-out set.
func (o *optimizer) dce() {
	cur := o.row(len(o.starts) - 1)
	for b := 0; b < len(o.starts)-1; b++ {
		o.liveOut(b, cur)
		for pc := int(o.starts[b+1]) - 1; pc >= int(o.starts[b]); pc-- {
			if o.back(pc, cur) {
				o.kill(pc)
			}
		}
	}
}

// --- Superinstruction fusion -------------------------------------------------

// fuse collapses adjacent instruction pairs into superinstructions.
// Adjacency means: the second instruction is the next live one in the
// same basic block (so both always execute together). The intermediate
// register must be dead after the pair: a backward walk over the block
// first marks each instruction whose destination the next one leaves
// dead. A fused instruction keeps the second one's destination and only
// moves reads into the pair, so the marks stay true and a fused result
// can fuse again with its own successor.
func (o *optimizer) fuse() {
	cur := o.row(len(o.starts) - 1)
	deadNext := make([]bool, len(o.code))
	for b := 0; b < len(o.starts)-1; b++ {
		start, end := int(o.starts[b]), int(o.starts[b+1])
		o.liveOut(b, cur)
		for j := end - 1; j >= start; j-- {
			if o.code[j].dead {
				continue
			}
			i := j - 1
			for i >= start && o.code[i].dead {
				i--
			}
			if i >= start {
				if d, ok := writesReg(&o.code[i].in); ok {
					deadNext[i] = !bitHas(cur, d)
				}
			}
			o.back(j, cur)
		}
		for i := start; i < end; i++ {
			if o.code[i].dead {
				continue
			}
			j := i + 1
			for j < end && o.code[j].dead {
				j++
			}
			if j == end {
				break
			}
			if o.fusePair(&o.code[i], &o.code[j], i, deadNext[i]) {
				i = j - 1 // the fused instruction may pair with its successor
			}
		}
	}
}

// fusePair fuses a, the instruction at i, into b, the next one, when
// one of the patterns matches; dead reports a's destination dead after
// b.
func (o *optimizer) fusePair(a, b *oinst, i int, dead bool) bool {
	switch {
	// opBin(mul) + opBin(add) -> opMad, when the product is the add's
	// LEFT operand (the fused handler computes prod+c in that order, so
	// fusing the right operand could flip NaN-payload propagation).
	case a.in.op == opBin && a.in.imm == aMul && b.in.op == opBin && b.in.imm == aAdd &&
		b.in.a == a.in.dst && b.in.b != a.in.dst &&
		a.in.dst != a.in.a && a.in.dst != a.in.b && dead:
		b.in = instr{op: opMad, dst: b.in.dst, a: a.in.a, b: a.in.b, c: b.in.b}
		b.ex2 = a.ex // the mul's fault position
		o.kill(i)
		return true

	// opLoad + opMad(c=loaded) -> opLoadMad. Only for an unfused opMad
	// (ex2 is ex): a previously fused mul/add pair would need a third
	// error slot.
	case a.in.op == opLoad && b.in.op == opMad && b.ex2 == b.ex &&
		b.in.c == a.in.dst && b.in.a != a.in.dst && b.in.b != a.in.dst &&
		a.in.dst != a.in.b && dead:
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
		dead:
		b.in = instr{op: opMadAcc, a: a.in.a, b: a.in.b, c: a.in.c, imm: a.in.imm}
		b.ex = a.ex // the mad's fault position
		b.ex2 = a.ex2
		o.kill(i)
		return true
	}
	return false
}

// --- Loop-invariant code motion ----------------------------------------------

// A loop is the pcs [top, end] of a back-edge: the opJump at end to top.
type loop struct {
	top, end int
	// shared: an enclosing loop starts at the same top, so a preheader
	// here would run only on the first entry. The loop hoists nothing of
	// its own; its body is the enclosing loop's.
	shared bool
	// entered: a jump from outside the loop lands on top, so its
	// preheader starts a region of its own.
	entered bool
	pre     []int32 // the hoists that reached this preheader, in order
	n       int     // how many of them stay here
}

// A hoist is one hoisted instruction: its preheader form, which writes
// a fresh register and reads hoisted values from theirs, its fault
// position, and loop, the outermost loop it has left so far: it goes to
// that loop's preheader.
type hoist struct {
	in       instr
	ex, loop int32
}

// licm hoists provably non-faulting register-only instructions whose
// operands are invariant in a loop into a preheader before the loop's
// top, and reports whether anything moved. The hoisted computation
// lands in a fresh register; the original instruction becomes an opMov
// from it, so conditional execution inside the loop and post-loop
// register state are byte-identical (the preheader instructions cannot
// fault and write only fresh registers).
//
// Loops are visited innermost first, in one pass. An operand is
// invariant in a loop when the loop never writes it, or when its
// definition in the same single-entry region leaves the loop too (the
// preheader copy then reads the hoisted register), so a chain of
// invariants moves at once. A preheader sits in its enclosing loop's
// body, at the end of the region before the inner loop's top, so its
// instructions are candidates there as well and move outward as they
// are, still writing their one fresh register. The layout is rewritten
// once, at the end: jumps into a loop's top from outside it route
// through the preheader, back-edges from inside skip it.
func (o *optimizer) licm() bool {
	n := len(o.code)
	var loops []loop
	for pc := range o.code {
		if oi := &o.code[pc]; oi.in.op == opJump && int(oi.in.imm) <= pc {
			loops = append(loops, loop{top: int(oi.in.imm), end: pc})
		}
	}
	// Outermost first: by top, then by end descending.
	slices.SortFunc(loops, func(a, b loop) int {
		if a.top != b.top {
			return a.top - b.top
		}
		return b.end - a.end
	})
	at := slices.Repeat([]int32{-1}, n+1) // the loop whose preheader goes before each pc
	var open []int
	for i := range loops {
		l := &loops[i]
		for len(open) > 0 && loops[open[len(open)-1]].end < l.top {
			open = open[:len(open)-1]
		}
		if len(open) > 0 && loops[open[len(open)-1]].end < l.end {
			return false // loops that overlap without nesting: leave the code alone
		}
		if at[l.top] >= 0 {
			l.shared = true
		} else {
			at[l.top] = int32(i)
		}
		open = append(open, i)
	}
	for pc := range o.code {
		switch in := &o.code[pc].in; in.op {
		case opJump, opJumpF, opJumpT:
			if li := at[in.imm]; li >= 0 && (pc < loops[li].top || pc > loops[li].end) {
				loops[li].entered = true
			}
		}
	}

	o.freshLo = int32(o.nreg)
	stamp := make([]int32, o.nreg) // the last loop (index + 1) found writing each register
	defAt := make([]int32, o.nreg) // pc + 1 of each register's latest writer in the walk
	hoisted := make([]int32, n)    // each pc's hoist + 1, or 0
	var hs []hoist
	for li := int32(len(loops) - 1); li >= 0; li-- {
		l := &loops[li]
		if l.shared {
			continue
		}
		for pc := l.top; pc <= l.end; pc++ {
			if d, ok := writesReg(&o.code[pc].in); ok && !o.code[pc].dead {
				stamp[d] = li + 1
			}
		}
		// invariant reports whether in, at pos in the region that starts
		// at region, reads only values invariant in l, and then repoints
		// its reads of values hoisted out of l at their fresh registers.
		invariant := func(in *instr, pos, region int) bool {
			ok := true
			out := *in
			check := func(r int32) int32 {
				switch {
				case r >= o.freshLo:
					ok = ok && hs[r-o.freshLo].loop == li
				case stamp[r] != li+1:
				default:
					d := int(defAt[r]) - 1
					if d >= region && d < pos && hoisted[d] > 0 && hs[hoisted[d]-1].loop == li {
						return hs[hoisted[d]-1].in.dst
					}
					ok = false
				}
				return r
			}
			if rewriteReads(&out, check); ok {
				*in = out
			}
			return ok
		}
		region := l.top
		for pc := l.top; pc <= l.end; pc++ {
			if c := at[pc]; c >= 0 && c != li {
				// A nested loop: its preheader's instructions may leave l
				// too; its body is done.
				inner := &loops[c]
				if inner.entered {
					region = pc
				}
				for _, h := range inner.pre {
					if hs[h].loop == c && invariant(&hs[h].in, pc, region) {
						hs[h].loop = li
						l.pre = append(l.pre, h)
					}
				}
				pc, region = inner.end, inner.end+1
				continue
			}
			if o.jt[pc] {
				region = pc
			}
			oi := &o.code[pc]
			if oi.dead {
				continue
			}
			// A vector constructor's operand block cannot be repointed.
			if in := oi.in; in.op != opMov && in.op != opVecCtor &&
				o.pureNonFaulting(&in) && invariant(&in, pc, region) {
				in.dst = int32(o.nreg)
				o.nreg++
				o.regT = append(o.regT, o.regT[oi.in.dst])
				hs = append(hs, hoist{in: in, ex: oi.ex, loop: li})
				hoisted[pc] = int32(len(hs))
				l.pre = append(l.pre, int32(len(hs)-1))
			}
			if d, ok := writesReg(&oi.in); ok {
				defAt[d] = int32(pc + 1)
			}
			switch oi.in.op {
			case opJump, opHalt, opErr:
				region = pc + 1
			}
		}
	}
	o.freshHi = int32(o.nreg)
	if len(hs) == 0 {
		return false
	}

	// Each pc moves down past the preheaders laid out before it; moving
	// the code from the back, in place, overwrites only what has moved.
	newPC := make([]int32, n+1)
	shift := 0
	for pc := 0; pc <= n; pc++ {
		if li := at[pc]; li >= 0 {
			for _, h := range loops[li].pre {
				if hs[h].loop == li {
					loops[li].n++
				}
			}
			shift += loops[li].n
		}
		newPC[pc] = int32(pc + shift)
	}
	o.code = slices.Grow(o.code, shift)[:n+shift]
	for pc := n - 1; pc >= 0; pc-- {
		oi := o.code[pc]
		switch in := &oi.in; in.op {
		case opJump, opJumpF, opJumpT:
			t := newPC[in.imm]
			if li := at[in.imm]; li >= 0 && (pc < loops[li].top || pc > loops[li].end) {
				t -= int32(loops[li].n) // enter through the preheader
			}
			in.imm = int64(t)
		}
		if h := hoisted[pc]; h > 0 {
			oi = oinst{in: instr{op: opMov, dst: oi.in.dst, a: hs[h-1].in.dst}, ex: oi.ex, ex2: oi.ex}
		}
		o.code[newPC[pc]] = oi
		if li := at[pc]; li >= 0 {
			p := int(newPC[pc]) - loops[li].n
			for _, h := range loops[li].pre {
				if hs[h].loop == li {
					o.code[p] = oinst{in: hs[h].in, ex: hs[h].ex, ex2: hs[h].ex}
					p++
				}
			}
		}
	}
	return true
}

// --- Register renumbering ----------------------------------------------------

// nTypeCodes bounds typeCode: a base times a vector width of 1, 2, 4,
// 8 or 16.
const nTypeCodes = (int(BaseVoid) + 1) * 5

// typeCode indexes a register type in renumber's per-type pools.
func typeCode(t Type) int { return int(t.Base)*5 + bits.TrailingZeros(uint(t.Lanes)) }

// renumber lets registers whose live ranges do not overlap share one
// register of their type, by linear scan: a register's range spans
// every pc where it is read, written or live, which the block sets give
// without a per-pc walk — a register live into a block spans its first
// pc, one live out of it its last. Parameters and vector constructor
// blocks, which start and opVecCtor address by number, keep registers
// of their own. It rewrites the code and the type table and returns
// each old register's new number, -1 for one the code no longer uses.
func (o *optimizer) renumber() []int32 {
	lo, hi := slices.Repeat([]int32{int32(len(o.code))}, o.nreg), slices.Repeat([]int32{-1}, o.nreg)
	span := func(r int32, pc int) { lo[r], hi[r] = min(lo[r], int32(pc)), max(hi[r], int32(pc)) }
	spanSet := func(set []uint64, pc int) {
		for w, x := range set {
			for ; x != 0; x &= x - 1 {
				span(int32(w*64+bits.TrailingZeros64(x)), pc)
			}
		}
	}
	for pc := range o.code {
		if o.code[pc].dead {
			continue
		}
		in := &o.code[pc].in
		instReads(in, func(r int32) { span(r, pc) })
		if d, ok := writesReg(in); ok {
			span(d, pc)
		}
	}
	cur := o.row(len(o.starts) - 1)
	for b := 0; b < len(o.starts)-1; b++ {
		spanSet(o.row(b), int(o.starts[b]))
		o.liveOut(b, cur)
		spanSet(cur, int(o.starts[b+1])-1)
	}
	num := slices.Repeat([]int32{-1}, o.nreg)
	var regT []Type
	var end []int32 // the last pc of each new register's current occupant
	newReg := func(t Type) int32 {
		regT, end = append(regT, t), append(end, 0)
		return int32(len(regT) - 1)
	}
	for _, r := range o.src.paramRegs {
		if r >= 0 {
			num[r] = newReg(o.regT[r])
		}
	}
	for pc := range o.code {
		if in := &o.code[pc].in; in.op == opVecCtor && !o.code[pc].dead && num[in.a] < 0 {
			for k := in.a; k < in.a+in.c; k++ {
				num[k] = newReg(o.regT[k])
			}
		}
	}
	var order []int32
	for r := range num {
		if num[r] < 0 && lo[r] <= hi[r] {
			order = append(order, int32(r))
		}
	}
	slices.SortStableFunc(order, func(a, b int32) int { return int(lo[a] - lo[b]) })
	var pool [nTypeCodes][]int32
	for _, r := range order {
		k := typeCode(o.regT[r])
		i := slices.IndexFunc(pool[k], func(x int32) bool { return end[x] < lo[r] })
		if i < 0 {
			pool[k] = append(pool[k], newReg(o.regT[r]))
			i = len(pool[k]) - 1
		}
		num[r] = pool[k][i]
		end[num[r]] = hi[r]
	}
	for pc := range o.code {
		in := &o.code[pc].in
		if o.code[pc].dead {
			continue
		}
		if _, ok := writesReg(in); ok {
			in.dst = num[in.dst]
		}
		if in.op == opVecCtor {
			in.a = num[in.a]
		} else {
			rewriteReads(in, func(r int32) int32 { return num[r] })
		}
	}
	o.nreg, o.regT = len(regT), regT
	return num
}

// --- Finish ------------------------------------------------------------------

// finish emits the final compiledKernel without the dead instructions:
// a jump to one lands on the next survivor, exactly where control
// resumes.
func (o *optimizer) finish() *compiledKernel {
	num := o.renumber()
	params := slices.Clone(o.src.paramRegs)
	for i, r := range params {
		if r >= 0 {
			params[i] = num[r]
		}
	}
	np := &compiledKernel{
		types:      o.src.types,
		consts:     o.src.consts,
		defs:       o.src.defs,
		errs:       o.src.errs,
		nreg:       o.nreg,
		regT:       o.regT,
		narr:       o.src.narr,
		paramRegs:  params,
		paramArrs:  o.src.paramArrs,
		localSlots: o.src.localSlots,
		slotT:      o.src.slotT,
	}
	at := make([]int32, len(o.code)+1) // each pc's position in np.code
	var kept int32
	for pc := range o.code {
		at[pc] = kept
		if !o.code[pc].dead {
			kept++
		}
	}
	at[len(o.code)] = kept
	np.code, np.ex, np.ex2 = make([]instr, 0, kept), make([]Expr, kept), make([]Expr, kept)
	for _, oi := range o.code {
		if oi.dead {
			continue
		}
		in := oi.in
		switch in.op {
		case opJump, opJumpF, opJumpT:
			in.imm = int64(at[in.imm])
		}
		np.ex[len(np.code)], np.ex2[len(np.code)] = o.src.ex[oi.ex], o.src.ex[oi.ex2]
		np.code = append(np.code, in)
	}
	np.layoutLanes()
	return np
}
