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
//   - convert elision: an opConvert whose source register has the target
//     type becomes an opMov.
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
//     operands are not written inside a loop, or are computed by an
//     instruction hoisted with them, are computed once in a loop
//     preheader into a fresh register; the original instruction
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
//   - static bounds elision: loads/stores with constant provably
//     in-bounds indexes become unchecked opLoadK/opStoreK.
//   - register renumbering: a linear scan over the final liveness lets
//     registers of one type whose live ranges do not overlap share a
//     register, so hoisted values do not add lane storage.
//
// Every proof reads the program's static register types (regT), which
// the compiler fixes: each register keeps one type, and a register the
// optimizer adds takes the type of the value it holds. A type fault is
// already an opErr, so only integer division and modulo, work-item
// queries and memory accesses can fault.
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
	_, settled := o.rounds()
	o.rebuild()
	o.analyze()
	o.elideBounds()
	return o.finish(settled)
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
	src *compiledKernel

	code   []oinst
	consts []value
	types  []Type
	nreg   int
	regT   []Type // each register's static type

	// Each array slot's element count, from its declaration: hoisted
	// __local arrays and opAllocArr definitions; -1 for buffers.
	arrLen []int

	// Recomputed by analyze.
	jt []bool // jump targets

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

	// preheaderReg marks the registers hoistInto created: each is
	// written once, by its preheader instruction, and read only after
	// it, inside the loop the preheader enters.
	preheaderReg map[int32]bool

	// Reused across rounds: liveness's bitset slab and row headers, and
	// the spare code buffer that rebuild and hoistInto fill and swap in.
	liveBits []uint64
	liveRows [][]uint64
	lastLive [][]uint64 // liveness's latest result
	spare    []oinst
}

func newOptimizer(k *KernelDecl, p *compiledKernel) *optimizer {
	o := &optimizer{
		src:      p,
		code:     make([]oinst, len(p.code)),
		consts:   append([]value(nil), p.consts...),
		types:    append([]Type(nil), p.types...),
		nreg:     p.nreg,
		regT:     slices.Clone(p.regT),
		arrLen:   make([]int, p.narr),
		constOf:  map[int32]value{},
		constReg: map[value]int32{},

		preheaderReg: map[int32]bool{},
	}
	for i := range p.code {
		o.code[i] = oinst{in: p.code[i], ex: p.ex[i]}
	}
	for i := range o.arrLen {
		o.arrLen[i] = -1
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
		if in.op == opAllocArr {
			def := p.defs[in.imm]
			o.arrLen[in.a] = def.total / def.t.Lanes
		}
	}
	return o
}

// --- Instruction facts -------------------------------------------------------

// instReads visits every register the instruction reads.
func instReads(in *instr, visit func(int32)) {
	switch in.op {
	case opMov, opBool, opNeg, opNot, opBitNot, opConvert, opWI:
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
	case opMad, opLoadMad, opMadAcc, opBinStore:
		visit(in.a)
		visit(in.b)
		visit(in.c)
	case opLoad, opCheckIdx, opVload:
		visit(in.b)
	case opStore, opVstore, opLoadStore:
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
		opVecCtor, opWI, opMad, opMin, opMax, opLoad, opVload, opLoadK,
		opLoadBin, opLoadMad:
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
	case opMad, opLoadMad, opMadAcc, opBinStore:
		in.a = f(in.a)
		in.b = f(in.b)
		in.c = f(in.c)
	case opLoad, opCheckIdx, opVload:
		in.b = f(in.b)
	case opStore, opVstore, opLoadStore:
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

// --- Purity / non-faulting proofs --------------------------------------------

// pureNonFaulting proves the instruction writes only its destination
// register and cannot fault — the DCE/LICM admission test. Type faults
// are opErrs, so of the register-only instructions only an integer
// division or modulo and a work-item query can fault.
func (o *optimizer) pureNonFaulting(in *instr) bool {
	switch in.op {
	case opConst, opMov, opBool, opNot, opBitNot, opNeg, opConvert, opVecCtor, opMad, opMin, opMax:
		return true
	case opBin:
		return !o.regT[in.a].IsInt() || in.imm != aDiv && in.imm != aMod
	case opWI:
		// Faults unless the dimension is a known 0/1 constant.
		v, ok := o.constOf[in.a]
		return ok && (v.i == 0 || v.i == 1)
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
	o.lastLive = liveOut
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
		if oi.in.op == opConvert && o.regT[oi.in.a] == o.types[oi.in.imm] {
			oi.in = instr{op: opMov, dst: oi.in.dst, a: oi.in.a}
			changed = true
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
			if !o.pureNonFaulting(&nj.in) {
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
		if o.pureNonFaulting(&oi.in) {
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
// An instruction whose operand is computed by a hoisted instruction
// earlier in its straight-line region hoists with it, so a chain of
// invariants moves in one call. One loop is transformed per call; the
// pipeline loop re-runs until nothing moves.
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
			if !o.pureNonFaulting(&oi.in) {
				continue
			}
			// An operand is invariant when the loop never writes it, or
			// when its reaching definition is itself hoisted: the
			// preheader then computes it first (hoistInto repoints the
			// read), so a whole chain of invariants moves at once.
			invariant := true
			instReads(&oi.in, func(r int32) {
				if int(r) < len(written) && written[r] && (oi.in.op == opVecCtor || o.hoistedDef(hoist, pc, r) < 0) {
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

// hoistedDef returns the index in hoist (ascending pcs) of the
// definition of r that reaches pc, or -1 when it is not hoisted.
func (o *optimizer) hoistedDef(hoist []int, pc int, r int32) int {
	if i, ok := slices.BinarySearch(hoist, o.reachingDef(pc, r)); ok {
		return i
	}
	return -1
}

// hoistInto inserts a preheader before top containing the hoisted
// instructions and remaps every jump. Jumps into the loop head from
// outside route through the preheader; back-edges from inside skip it.
// A hoisted instruction whose destination is a preheader register moves
// as it is: the register is read only after its one writer, inside the
// loop, so computing it earlier with the same invariant operands
// changes nothing. Any other hoisted instruction lands in a fresh
// preheader register and leaves an opMov from it behind.
func (o *optimizer) hoistInto(top, end int, hoist []int) {
	k := len(hoist)
	dst := make([]int32, k) // the register hoist[i] writes in the preheader
	for i, pc := range hoist {
		d := o.code[pc].in.dst
		if !o.preheaderReg[d] {
			o.regT = append(o.regT, o.regT[d])
			d = int32(o.nreg)
			o.nreg++
			o.preheaderReg[d] = true
		}
		dst[i] = d
	}
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
		rewriteReads(&h.in, func(r int32) int32 {
			if m := o.hoistedDef(hoist, pc, r); m >= 0 {
				return dst[m]
			}
			return r
		})
		h.in.dst = dst[i]
		h.dead = false
		newCode = append(newCode, h)
	}
	next := 0
	for pc := top; pc < len(o.code); pc++ {
		oi := o.code[pc]
		if next < k && hoist[next] == pc {
			if dst[next] == oi.in.dst {
				oi.dead = true // moved to the preheader
			} else {
				oi = oinst{in: instr{op: opMov, dst: oi.in.dst, a: dst[next]}, ex: oi.ex}
			}
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

// --- Static bounds elision ---------------------------------------------------

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

// --- Register renumbering ----------------------------------------------------

// renumber lets registers whose live ranges do not overlap share one
// register of their type, by linear scan over the final code: a
// register's range spans every pc where it is read, written or live.
// Parameters and vector constructor blocks, which start and opVecCtor
// address by number, keep registers of their own. It rewrites the code
// and the type table and returns each old register's new number, -1
// for one the code no longer uses. When the rounds settled, the last
// round changed nothing after its liveness ran (in fuse): unless the
// rebuild since removed instructions that an earlier round's LICM left
// dead, that liveness still covers every live range (the const-index
// lowering only dropped reads) and is not computed again.
func (o *optimizer) renumber(settled bool) []int32 {
	n := len(o.code)
	live := o.lastLive
	if !settled || len(live) != n {
		live = o.liveness()
	}
	lo, hi := make([]int, o.nreg), make([]int, o.nreg)
	for r := range lo {
		lo[r], hi[r] = n, -1
	}
	span := func(r int32, pc int) { lo[r], hi[r] = min(lo[r], pc), max(hi[r], pc) }
	for pc := range o.code {
		in := &o.code[pc].in
		instReads(in, func(r int32) { span(r, pc) })
		if d, ok := writesReg(in); ok {
			span(d, pc)
		}
		for w, set := range live[pc] {
			for ; set != 0; set &= set - 1 {
				span(int32(w*64+bits.TrailingZeros64(set)), pc)
			}
		}
	}
	num := make([]int32, o.nreg)
	var regT []Type
	var end []int // the last pc of each new register's current occupant
	newReg := func(t Type) int32 {
		regT, end = append(regT, t), append(end, 0)
		return int32(len(regT) - 1)
	}
	for r := range num {
		num[r] = -1
	}
	for _, r := range o.src.paramRegs {
		if r >= 0 {
			num[r] = newReg(o.regT[r])
		}
	}
	for pc := range o.code {
		if in := &o.code[pc].in; in.op == opVecCtor && num[in.a] < 0 {
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
	slices.SortStableFunc(order, func(a, b int32) int { return lo[a] - lo[b] })
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
func (o *optimizer) finish(settled bool) *compiledKernel {
	o.rebuild()
	num := o.renumber(settled)
	params := slices.Clone(o.src.paramRegs)
	for i, r := range params {
		if r >= 0 {
			params[i] = num[r]
		}
	}
	np := &compiledKernel{
		types:      o.types,
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
	for _, r := range o.constOrd {
		if num[r] < 0 {
			continue // no longer read
		}
		o.consts = append(o.consts, o.constOf[r])
		np.code = append(np.code, instr{op: opConst, dst: num[r], imm: int64(len(o.consts) - 1)})
		np.ex = append(np.ex, nil)
		np.ex2 = append(np.ex2, nil)
	}
	k := len(np.code)
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
