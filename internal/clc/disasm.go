package clc

// Bytecode disassembler. Exists so optimizer regressions are
// diagnosable from the command line (clcheck -dump-bytecode) and so
// optimizer tests can assert on the shape of emitted code without
// reaching into unexported instruction fields.

import (
	"fmt"
	"strings"
)

// opNames mirrors the opcode const block in compile.go.
var opNames = [...]string{
	opConst:     "const",
	opMov:       "mov",
	opBool:      "bool",
	opBin:       "bin",
	opNeg:       "neg",
	opNot:       "not",
	opBitNot:    "bitnot",
	opConvert:   "convert",
	opVecCtor:   "vecctor",
	opJump:      "jump",
	opJumpF:     "jumpf",
	opJumpT:     "jumpt",
	opWI:        "wi",
	opBarrier:   "barrier",
	opMad:       "mad",
	opMin:       "min",
	opMax:       "max",
	opLoad:      "load",
	opCheckIdx:  "checkidx",
	opStore:     "store",
	opVload:     "vload",
	opVstore:    "vstore",
	opAllocArr:  "allocarr",
	opErr:       "err",
	opHalt:      "halt",
	opLoadK:     "loadk",
	opStoreK:    "storek",
	opLoadBin:   "loadbin",
	opBinStore:  "binstore",
	opLoadStore: "loadstore",
	opLoadMad:   "loadmad",
	opMadAcc:    "madacc",
}

func (op opcode) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op%d", int(op))
}

var wiNames = [...]string{
	wiGlobalID:   "global_id",
	wiLocalID:    "local_id",
	wiGroupID:    "group_id",
	wiLocalSize:  "local_size",
	wiGlobalSize: "global_size",
	wiNumGroups:  "num_groups",
}

// disassemble renders the program, one instruction per line:
//
//	12  bin        r3 = r1 * r2
//	13  jumpf      r3 -> 27
//
// Jump targets are marked with a leading ">" so loops stand out.
func (p *compiledKernel) disassemble() string {
	var sb strings.Builder
	target := make([]bool, len(p.code)+1)
	for _, in := range p.code {
		switch in.op {
		case opJump, opJumpF, opJumpT:
			if int(in.imm) <= len(p.code) {
				target[in.imm] = true
			}
		}
	}
	fmt.Fprintf(&sb, "; %d instrs, %d regs, %d array slots\n", len(p.code), p.nreg, p.narr)
	for pc, in := range p.code {
		mark := " "
		if target[pc] {
			mark = ">"
		}
		fmt.Fprintf(&sb, "%s%4d  %-10s %s\n", mark, pc, in.op.String(), p.operands(pc, &in))
	}
	return sb.String()
}

func renderConst(v *value) string {
	if v.t.IsInt() {
		return fmt.Sprintf("%s %d", v.t, v.i)
	}
	if v.t.Lanes == 1 {
		return fmt.Sprintf("%s %g", v.t, v.f[0])
	}
	lanes := make([]string, v.t.Lanes)
	for l := range lanes {
		lanes[l] = fmt.Sprintf("%g", v.f[l])
	}
	return fmt.Sprintf("%s (%s)", v.t, strings.Join(lanes, ","))
}

func arith(imm int64) string {
	if imm >= 0 && int(imm) < len(arithOps) {
		return arithOps[imm]
	}
	return "?"
}

// operands renders one instruction's operand fields symbolically.
func (p *compiledKernel) operands(pc int, in *instr) string {
	switch in.op {
	case opConst:
		return fmt.Sprintf("r%d = consts[%d] (%s)", in.dst, in.imm, renderConst(&p.consts[in.imm]))
	case opMov:
		return fmt.Sprintf("r%d = r%d", in.dst, in.a)
	case opBool:
		return fmt.Sprintf("r%d = bool(r%d)", in.dst, in.a)
	case opBin:
		return fmt.Sprintf("r%d = r%d %s r%d", in.dst, in.a, arith(in.imm), in.b)
	case opNeg:
		return fmt.Sprintf("r%d = -r%d", in.dst, in.a)
	case opNot:
		return fmt.Sprintf("r%d = !r%d", in.dst, in.a)
	case opBitNot:
		return fmt.Sprintf("r%d = ^r%d", in.dst, in.a)
	case opConvert:
		return fmt.Sprintf("r%d = (%s) r%d", in.dst, p.types[in.imm], in.a)
	case opVecCtor:
		return fmt.Sprintf("r%d = (%s)(r%d..r%d)", in.dst, p.types[in.imm], in.a, int(in.a)+int(in.c)-1)
	case opJump:
		return fmt.Sprintf("-> %d", in.imm)
	case opJumpF:
		return fmt.Sprintf("if !r%d -> %d", in.a, in.imm)
	case opJumpT:
		return fmt.Sprintf("if r%d -> %d", in.a, in.imm)
	case opWI:
		name := "?"
		if in.imm >= 0 && int(in.imm) < len(wiNames) {
			name = wiNames[in.imm]
		}
		return fmt.Sprintf("r%d = get_%s(r%d)", in.dst, name, in.a)
	case opBarrier:
		return ""
	case opMad:
		return fmt.Sprintf("r%d = r%d*r%d + r%d", in.dst, in.a, in.b, in.c)
	case opMin:
		return fmt.Sprintf("r%d = min(r%d, r%d)", in.dst, in.a, in.b)
	case opMax:
		return fmt.Sprintf("r%d = max(r%d, r%d)", in.dst, in.a, in.b)
	case opLoad:
		return fmt.Sprintf("r%d = arr%d[r%d]", in.dst, in.a, in.b)
	case opCheckIdx:
		return fmt.Sprintf("bounds arr%d[r%d]", in.a, in.b)
	case opStore:
		return fmt.Sprintf("arr%d[r%d] = r%d", in.a, in.b, in.c)
	case opVload:
		return fmt.Sprintf("r%d = vload%d(r%d, arr%d)", in.dst, in.imm, in.b, in.a)
	case opVstore:
		return fmt.Sprintf("vstore%d(r%d, r%d, arr%d)", in.imm, in.c, in.b, in.a)
	case opAllocArr:
		def := p.defs[in.imm]
		return fmt.Sprintf("arr%d = alloc %s[%d]", in.a, def.t, def.total)
	case opErr:
		return fmt.Sprintf("%q", p.errs[in.imm].Msg)
	case opHalt:
		return ""
	case opLoadK:
		return fmt.Sprintf("r%d = arr%d[%d]", in.dst, in.a, in.imm)
	case opStoreK:
		return fmt.Sprintf("arr%d[%d] = r%d", in.a, in.imm, in.c)
	case opLoadBin:
		op, side, slot := unpackLoadBin(in.imm)
		if side == 0 {
			return fmt.Sprintf("r%d = arr%d[r%d] %s r%d", in.dst, slot, in.b, arith(op), in.a)
		}
		return fmt.Sprintf("r%d = r%d %s arr%d[r%d]", in.dst, in.a, arith(op), slot, in.b)
	case opBinStore:
		op, slot := unpackBinStore(in.imm)
		return fmt.Sprintf("arr%d[r%d] = r%d %s r%d", slot, in.c, in.a, arith(op), in.b)
	case opLoadStore:
		src, dst := unpackLoadStore(in.imm)
		return fmt.Sprintf("arr%d[r%d] = arr%d[r%d]", dst, in.c, src, in.b)
	case opLoadMad:
		return fmt.Sprintf("r%d = r%d*r%d + arr%d[r%d]", in.dst, in.a, in.b, in.imm, in.c)
	case opMadAcc:
		return fmt.Sprintf("arr%d[r%d] += r%d*r%d", in.imm, in.c, in.a, in.b)
	}
	return fmt.Sprintf("dst=%d a=%d b=%d c=%d imm=%d", in.dst, in.a, in.b, in.c, in.imm)
}

// Disassemble returns a printable listing of the kernel's bytecode. With
// optimized true it disassembles the post-optimizer program (the one Run
// executes by default); otherwise the compiler's raw output. Returns an
// error when the kernel does not compile to bytecode.
func (k *KernelDecl) Disassemble(optimized bool) (string, error) {
	if err := k.CompileBytecode(); err != nil {
		return "", err
	}
	p := k.bytecode()
	if optimized {
		p = k.bytecodeOptimized()
	}
	return p.disassemble(), nil
}
