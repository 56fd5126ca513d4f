package clc

// The bytecode compiler lowers a checked kernel AST into a compact
// register program executed by vm.go. Every register has one static
// type for the whole program, the type the checker gave the expression
// it holds, and each operation is emitted for its operands' static
// types: an int operand of a floating operation is converted first, and
// a type fault becomes an opErr. Evaluation is lazy and in source
// order: a fault (with its positioned error message) happens exactly
// when execution reaches the faulting expression, and dead code never
// faults. Names resolve to register/array slots at compile time, every
// computed value gets a fresh register, constant subexpressions fold to
// constant-pool entries, each loaded into its own register once by a
// prologue at pc 0, and control flow becomes jumps over a flat
// instruction slice.

import "fmt"

type opcode uint8

// The operand rules every opcode relies on, fixed by the compiler: an
// array index, vload/vstore offset, work-item dimension and opBitNot
// operand is an int; opBin, opMad, opMin and opMax operands are all int
// or all floating (a floating scalar broadcasts against a vector);
// opMov copies between registers of one type; a value stored to an
// array has the element type; and no array accessed has an int element.
const (
	opConst    opcode = iota // r[dst] = consts[imm]
	opMov                    // r[dst] = r[a]
	opBool                   // r[dst] = r[a] truthy ? 1 : 0
	opBin                    // r[dst] = r[a] arithOps[imm] r[b]
	opNeg                    // r[dst] = -r[a]
	opNot                    // r[dst] = !r[a]
	opBitNot                 // r[dst] = ^r[a]
	opConvert                // r[dst] = convert r[a] to types[imm]
	opVecCtor                // r[dst] = types[imm] vector from r[a..a+c-1]
	opJump                   // pc = imm
	opJumpF                  // if !r[a] truthy: pc = imm
	opJumpT                  // if r[a] truthy: pc = imm
	opWI                     // r[dst] = work-item query imm, dim r[a]
	opBarrier                // work-group barrier
	opMad                    // r[dst] = r[a]*r[b] + r[c]
	opMin                    // r[dst] = min(r[a], r[b])
	opMax                    // r[dst] = max(r[a], r[b])
	opLoad                   // r[dst] = arrs[a][r[b]]
	opCheckIdx               // bounds-check arrs[a][r[b]] without loading
	opStore                  // arrs[a][r[b]] = r[c]
	opVload                  // r[dst] = vload_imm(r[b], arrs[a])
	opVstore                 // vstore_imm(r[c], r[b], arrs[a])
	opAllocArr               // arrs[a] = fresh zeroed array defs[imm]
	opErr                    // panic errs[imm]
	opHalt                   // end of kernel body

	// Optimizer-emitted opcodes (see optimize.go). The compiler never
	// produces these; they exist only in optimized programs.
	opLoadK     // r[dst] = arrs[a][imm], bounds statically proven
	opStoreK    // arrs[a][imm] = r[c], bounds statically proven
	opLoadBin   // r[dst] = arrs[slot][r[b]] <op> r[a] (imm packs op/side/slot)
	opBinStore  // arrs[slot][r[c]] = r[a] <op> r[b] (imm packs op/slot)
	opLoadStore // arrs[dslot][r[c]] = arrs[sslot][r[b]] (imm packs sslot/dslot)
	opLoadMad   // r[dst] = r[a]*r[b] + arrs[imm][r[c]]
	opMadAcc    // arrs[imm][r[c]] = r[a]*r[b] + arrs[imm][r[c]]
)

// Work-item query selectors (opWI.imm).
const (
	wiGlobalID int64 = iota
	wiLocalID
	wiGroupID
	wiLocalSize
	wiGlobalSize
	wiNumGroups
)

// arithOps indexes the binary operators opBin can carry in imm. The
// aXxx constants below mirror the array order; intArith and floatArith
// dispatch on them so the VM never touches operator strings.
var arithOps = [...]string{"+", "-", "*", "/", "%", "<<", ">>", "&", "|", "^", "<", "<=", ">", ">=", "==", "!="}

const (
	aAdd int64 = iota
	aSub
	aMul
	aDiv
	aMod
	aShl
	aShr
	aAnd
	aOr
	aXor
	aLt
	aLe
	aGt
	aGe
	aEq
	aNe
)

var arithIdx = func() map[string]int64 {
	m := make(map[string]int64, len(arithOps))
	for i, op := range arithOps {
		m[op] = int64(i)
	}
	return m
}()

// instr is one VM instruction. dst/a/b/c are register indexes except
// where the opcode comments above say an array slot; imm selects a
// pool entry, jump target, operator, or vector width.
type instr struct {
	op      opcode
	dst     int32
	a, b, c int32
	imm     int64
}

// arrayDef describes a __private (or nested __local) array allocated by
// opAllocArr: element type plus total payload length (elements × lanes).
type arrayDef struct {
	t     Type
	total int
}

// compiledKernel is the immutable bytecode program for one kernel. It
// is shared by every Bind of the declaration and by all work-items;
// per-group state lives in the lane executor's storage (vm.go).
type compiledKernel struct {
	code []instr
	ex   []Expr // per-instruction error-position context (may be nil)
	ex2  []Expr // second fault-site position for fused instructions;
	// compileKernel aliases it to ex (the two sites coincide until the
	// optimizer fuses instruction pairs with distinct source positions).
	consts []value
	types  []Type
	defs   []arrayDef
	errs   []*Error

	nreg int
	narr int
	// regT is each register's static type.
	regT []Type

	// paramRegs[i] is the register for scalar parameter i (else -1);
	// paramArrs[i] the array slot for pointer parameter i (else -1).
	paramRegs []int32
	paramArrs []int32
	// localSlots maps the hoisting ordinal of each top-level __local
	// array (the order Bind collects them) to its array slot.
	localSlots []int32
	// slotT is each array slot's declared element type.
	slotT []Type

	// Lane storage layout (layoutLanes): an int register's row is iv row
	// off[r]; a floating register's lanes are fv rows off[r] onward.
	// irows and frows count the rows, scratch registers included.
	off          []int32
	irows, frows int
}

// bytecode compiles (once) and returns the kernel's program, or nil if
// compilation failed (see CompileBytecode).
func (k *KernelDecl) bytecode() *compiledKernel {
	k.compileOnce.Do(func() { k.compiled, k.compileErr = compileKernel(k) })
	return k.compiled
}

// bytecodeOptimized runs (once) the optimizer over the compiled
// program. Nil when compilation itself failed.
func (k *KernelDecl) bytecodeOptimized() *compiledKernel {
	k.optimizeOnce.Do(func() {
		if p := k.bytecode(); p != nil {
			k.optimizedProg = optimizeKernel(k, p)
		}
	})
	return k.optimizedProg
}

// CompileBytecode forces bytecode compilation and reports its error, a
// *Error, if any. Every kernel Compile accepts compiles (FuzzCompile
// asserts it); Bind returns this error otherwise.
func (k *KernelDecl) CompileBytecode() error {
	k.bytecode()
	return k.compileErr
}

// slotRef is a compile-time name binding: a register (with the
// variable's type, the conversion target of assignments) or an array
// slot.
type slotRef struct {
	reg int32
	arr int32
	t   Type
}

// compiler lowers one kernel. Every value it computes gets a register of
// its own, never reused: sharing registers whose live ranges do not
// overlap is the optimizer's renumbering. Every constant gets one
// register too, written once by the constant prologue at pc 0.
type compiler struct {
	p      *compiledKernel
	scopes []map[string]slotRef
	// constAt indexes the constant pool by bit pattern, so each constant
	// is stored once however many literals name it; constRegs[k] is pool
	// entry k's register.
	constAt   map[valueBits]int64
	constRegs []int32
}

func compileKernel(k *KernelDecl) (p *compiledKernel, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*Error)
			if !ok {
				panic(r)
			}
			p, err = nil, &Error{Line: e.Line, Col: e.Col, Msg: fmt.Sprintf("kernel %s: bytecode compile: %s", k.Name, e.Msg)}
		}
	}()
	c := &compiler{p: &compiledKernel{}, constAt: map[valueBits]int64{}}
	c.push()
	for _, prm := range k.Params {
		if prm.Pointer {
			slot := c.newArrSlot(Type{Base: prm.Type.Base, Lanes: 1})
			c.define(prm.Name, slotRef{reg: -1, arr: slot})
			c.p.paramRegs = append(c.p.paramRegs, -1)
			c.p.paramArrs = append(c.p.paramArrs, slot)
			continue
		}
		// Bind only ever produces scalar argument values, so the variable
		// is a scalar regardless of the declared lane count.
		t := canon(Type{Base: prm.Type.Base, Lanes: 1})
		reg := c.newReg(t)
		c.define(prm.Name, slotRef{reg: reg, arr: -1, t: t})
		c.p.paramRegs = append(c.p.paramRegs, reg)
		c.p.paramArrs = append(c.p.paramArrs, -1)
	}
	// Hoisted top-level __local arrays, in the order Bind collects them;
	// block binds each name where it is declared.
	for _, s := range k.Body.Stmts {
		if d, ok := s.(*Decl); ok && d.Space == LocalMem {
			c.p.localSlots = append(c.p.localSlots, c.newArrSlot(d.Type))
		}
	}
	c.block(k.Body, true)
	c.emit(instr{op: opHalt}, nil)
	c.prologue()
	// Unoptimized programs have one fault position per instruction; the
	// second slot aliases the first (opMad's mul and add faults share
	// the mad call's position until the optimizer fuses distinct sites).
	c.p.ex2 = c.p.ex
	c.p.layoutLanes()
	return c.p, nil
}

// --- Compiler bookkeeping ----------------------------------------------------

func (c *compiler) push() { c.scopes = append(c.scopes, map[string]slotRef{}) }
func (c *compiler) pop()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) define(name string, r slotRef) { c.scopes[len(c.scopes)-1][name] = r }

func (c *compiler) lookup(name string) (slotRef, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if r, ok := c.scopes[i][name]; ok {
			return r, true
		}
	}
	return slotRef{}, false
}

// newReg adds a register of type t.
func (c *compiler) newReg(t Type) int32 {
	c.p.regT = append(c.p.regT, t)
	c.p.nreg++
	return int32(c.p.nreg - 1)
}

func (c *compiler) newArrSlot(elem Type) int32 {
	s := int32(c.p.narr)
	c.p.narr++
	c.p.slotT = append(c.p.slotT, elem)
	return s
}

func (c *compiler) emit(in instr, at Expr) int {
	c.p.code = append(c.p.code, in)
	c.p.ex = append(c.p.ex, at)
	return len(c.p.code) - 1
}

// patch points a previously emitted jump at the next instruction.
func (c *compiler) patch(pc int) { c.p.code[pc].imm = int64(len(c.p.code)) }

// constReg returns the register that holds constant v, adding v to the
// pool on first use.
func (c *compiler) constReg(v value) int32 {
	k := v.bits()
	if i, ok := c.constAt[k]; ok {
		return c.constRegs[i]
	}
	r := c.newReg(v.t)
	c.constAt[k] = int64(len(c.p.consts))
	c.p.consts = append(c.p.consts, v)
	c.constRegs = append(c.constRegs, r)
	return r
}

// prologue puts each constant's opConst, once, in front of the code and
// shifts every jump past it. These are the program's only opConsts, and
// nothing else writes a constant's register.
func (c *compiler) prologue() {
	n := len(c.constRegs)
	code := make([]instr, n, n+len(c.p.code))
	for k, r := range c.constRegs {
		code[k] = instr{op: opConst, dst: r, imm: int64(k)}
	}
	for _, in := range c.p.code {
		switch in.op {
		case opJump, opJumpF, opJumpT:
			in.imm += int64(n)
		}
		code = append(code, in)
	}
	c.p.code = code
	c.p.ex = append(make([]Expr, n, n+len(c.p.ex)), c.p.ex...)
}

func (c *compiler) typeIdx(t Type) int64 {
	for i, u := range c.p.types {
		if u == t {
			return int64(i)
		}
	}
	c.p.types = append(c.p.types, t)
	return int64(len(c.p.types) - 1)
}

// emitErr lowers a fault that evaluation hits at this point into an
// instruction that panics with the positioned error. Dead code never
// reaches it, so failure stays lazy.
func (c *compiler) emitErr(e *Error) {
	c.p.errs = append(c.p.errs, e)
	c.emit(instr{op: opErr, imm: int64(len(c.p.errs) - 1)}, nil)
}

// convertInto emits dst = (to) r at position at, or the conversion's
// fault.
func (c *compiler) convertInto(dst, r int32, to Type, at Expr) {
	if msg := convertFault(c.p.regT[r], to); msg != "" {
		c.emitErr(errAt(at, "%s", msg))
		return
	}
	c.emit(instr{op: opConvert, dst: dst, a: r, imm: c.typeIdx(canon(to))}, at)
}

// convert emits r converted to to into a fresh temporary.
func (c *compiler) convert(r int32, to Type, at Expr) int32 {
	dst := c.newReg(canon(to))
	c.convertInto(dst, r, to, at)
	return dst
}

// --- Constant folding --------------------------------------------------------

// tryFold evaluates e at compile time when every leaf is a literal or
// builtin constant. Faulting expressions (division by zero, invalid
// conversions) are left to runtime so error order is preserved.
func (c *compiler) tryFold(e Expr) (v value, ok bool) {
	defer func() {
		if recover() != nil {
			v, ok = value{}, false
		}
	}()
	return c.foldExpr(e)
}

func (c *compiler) foldExpr(e Expr) (value, bool) {
	switch n := e.(type) {
	case *IntLit:
		return convertVal(intVal(n.Value), typeOf(n), n), true
	case *FloatLit:
		base := BaseDouble
		if n.Single {
			base = BaseFloat
		}
		v := floatVal(base, 1)
		v.f[0] = round32(base, n.Value)
		return v, true
	case *Ident:
		if cv, ok := builtinConsts[n.Name]; ok {
			return intVal(cv), true
		}
	case *Unary:
		x, ok := c.foldExpr(n.X)
		if !ok {
			return value{}, false
		}
		switch n.Op {
		case "-":
			if x.t.IsInt() {
				return value{t: x.t, i: wrapInt(x.t, -x.i)}, true
			}
			out := floatVal(x.t.Base, x.t.Lanes)
			for l := 0; l < x.t.Lanes; l++ {
				out.f[l] = -x.f[l]
			}
			return out, true
		case "!":
			return boolVal(!x.truthy()), true
		case "~":
			return intVal(^convertVal(x, intType, e).i), true
		}
	case *Binary:
		switch n.Op {
		case "&&":
			l, ok := c.foldExpr(n.L)
			if !ok {
				return value{}, false
			}
			if !l.truthy() {
				return intVal(0), true
			}
			r, ok := c.foldExpr(n.R)
			if !ok {
				return value{}, false
			}
			return boolVal(r.truthy()), true
		case "||":
			l, ok := c.foldExpr(n.L)
			if !ok {
				return value{}, false
			}
			if l.truthy() {
				return intVal(1), true
			}
			r, ok := c.foldExpr(n.R)
			if !ok {
				return value{}, false
			}
			return boolVal(r.truthy()), true
		default:
			l, lok := c.foldExpr(n.L)
			if !lok {
				return value{}, false
			}
			r, rok := c.foldExpr(n.R)
			if !rok {
				return value{}, false
			}
			return binopVal(n.Op, l, r, e), true
		}
	case *Cond:
		cv, ok := c.foldExpr(n.C)
		if !ok {
			return value{}, false
		}
		x := n.F
		if cv.truthy() {
			x = n.T
		}
		v, ok := c.foldExpr(x)
		if !ok {
			return value{}, false
		}
		t, msg := condType(typeOf(n.T), typeOf(n.F))
		if msg != "" {
			panic(errAt(e, "%s", msg))
		}
		return convertVal(v, t, e), true
	case *Cast:
		if len(n.Args) == 1 {
			if x, ok := c.foldExpr(n.Args[0]); ok {
				return convertVal(x, n.To, e), true
			}
		}
	}
	return value{}, false
}

// --- Expressions -------------------------------------------------------------

// expr compiles e into a register of e's static type and returns the
// register. The returned register may be a named variable's home
// register; callers must not write to it.
func (c *compiler) expr(e Expr) int32 {
	r := c.eval(e)
	if got, want := c.p.regT[r], typeOf(e); got != want {
		panic(errAt(e, "internal error: %s value in a %s register", want, got))
	}
	return r
}

// exprAs compiles e converted to t, a conversion that cannot fault (an
// int to a floating scalar, or anything to an int); a constant converts
// at compile time.
func (c *compiler) exprAs(e Expr, t Type) int32 {
	if typeOf(e) == t {
		return c.expr(e)
	}
	if v, ok := c.tryFold(e); ok {
		return c.constReg(convertVal(v, t, e))
	}
	return c.convert(c.expr(e), t, e)
}

func (c *compiler) eval(e Expr) int32 {
	if v, ok := c.tryFold(e); ok {
		return c.constReg(v)
	}
	switch n := e.(type) {
	case *Ident:
		// Builtin constants fold above (they shadow declarations).
		ref, ok := c.lookup(n.Name)
		if !ok {
			c.emitErr(errAt(e, "undeclared identifier %q", n.Name))
			return c.newReg(typeOf(e))
		}
		if ref.arr >= 0 {
			c.emitErr(errAt(e, "array %q used as a value", n.Name))
			return c.newReg(typeOf(e))
		}
		return ref.reg
	case *Binary:
		return c.binary(n)
	case *Unary:
		var x int32
		op := opNeg
		switch n.Op {
		case "-":
			x = c.expr(n.X)
		case "!":
			x, op = c.expr(n.X), opNot
		case "~":
			x, op = c.exprAs(n.X, intType), opBitNot
		default:
			c.expr(n.X)
			c.emitErr(errAt(e, "unsupported unary operator %q", n.Op))
			return c.newReg(typeOf(e))
		}
		dst := c.newReg(typeOf(e))
		c.emit(instr{op: op, dst: dst, a: x}, e)
		return dst
	case *Cond:
		t, msg := condType(typeOf(n.T), typeOf(n.F))
		if cv, ok := c.tryFold(n.C); ok {
			// The untaken branch is never evaluated.
			if cv.truthy() {
				return c.arm(n.T, t, msg, n)
			}
			return c.arm(n.F, t, msg, n)
		}
		dst := c.newReg(t)
		cv := c.expr(n.C)
		jf := c.emit(instr{op: opJumpF, a: cv}, nil)
		c.emit(instr{op: opMov, dst: dst, a: c.arm(n.T, t, msg, n)}, nil)
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jf)
		c.emit(instr{op: opMov, dst: dst, a: c.arm(n.F, t, msg, n)}, nil)
		c.patch(j)
		return dst
	case *Call:
		return c.call(n)
	case *Index:
		slot := c.arraySlot(n.X)
		if slot < 0 {
			// The array fault comes before evaluating the index.
			return c.newReg(typeOf(e))
		}
		idx := c.exprAs(n.Idx, intType)
		dst := c.newReg(c.p.slotT[slot])
		c.emit(instr{op: opLoad, dst: dst, a: slot, b: idx}, e)
		return dst
	case *Cast:
		if len(n.Args) == 1 {
			return c.convert(c.expr(n.Args[0]), n.To, e)
		}
		// Vector constructor: each component converts to the element type
		// into a block of consecutive registers.
		elem := canon(Type{Base: n.To.Base, Lanes: 1})
		first := int32(c.p.nreg)
		for range n.Args {
			c.newReg(elem)
		}
		for i, a := range n.Args {
			if r := c.expr(a); c.p.regT[r] == elem {
				c.emit(instr{op: opMov, dst: first + int32(i), a: r}, nil)
			} else {
				c.convertInto(first+int32(i), r, elem, a)
			}
		}
		dst := c.newReg(typeOf(e))
		if n.To.IsInt() {
			c.emitErr(errAt(e, "integer vectors are not supported"))
			return dst
		}
		c.emit(instr{op: opVecCtor, dst: dst, a: first, c: int32(len(n.Args)), imm: c.typeIdx(n.To)}, e)
		return dst
	}
	c.emitErr(errAt(e, "unsupported expression"))
	return c.newReg(typeOf(e))
}

// arm compiles a ternary arm converted to the ternary's type t. When the
// arms have no common type, msg is the fault, raised once the arm has
// been evaluated.
func (c *compiler) arm(x Expr, t Type, msg string, at Expr) int32 {
	if msg == "" {
		return c.exprAs(x, t)
	}
	c.expr(x)
	c.emitErr(errAt(at, "%s", msg))
	return c.newReg(t)
}

// arith emits l op r at position at under binType: an int operand of a
// floating operation converts first. It returns the result register.
func (c *compiler) arith(op int64, l, r int32, at Expr) int32 {
	lt, rt := c.p.regT[l], c.p.regT[r]
	common, res, msg := binType(op, lt, rt)
	if msg != "" {
		dst := c.newReg(res)
		c.emitErr(errAt(at, "%s", msg))
		return dst
	}
	if t := operandType(lt, common); t != lt {
		l = c.convert(l, t, at)
	}
	if t := operandType(rt, common); t != rt {
		r = c.convert(r, t, at)
	}
	dst := c.newReg(res)
	c.emit(instr{op: opBin, dst: dst, a: l, b: r, imm: op}, at)
	return dst
}

// operand compiles e, an operand of an operation whose common type is
// common, converted as binType says (a constant at compile time).
func (c *compiler) operand(e Expr, common Type) int32 {
	return c.exprAs(e, operandType(typeOf(e), common))
}

func (c *compiler) binary(n *Binary) int32 {
	switch n.Op {
	case "&&":
		if lv, ok := c.tryFold(n.L); ok {
			if !lv.truthy() {
				return c.constReg(intVal(0))
			}
			r := c.expr(n.R)
			dst := c.newReg(intType)
			c.emit(instr{op: opBool, dst: dst, a: r}, n)
			return dst
		}
		dst := c.newReg(intType)
		l := c.expr(n.L)
		jf := c.emit(instr{op: opJumpF, a: l}, nil)
		r := c.expr(n.R)
		c.emit(instr{op: opBool, dst: dst, a: r}, n)
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jf)
		c.emit(instr{op: opMov, dst: dst, a: c.constReg(intVal(0))}, n)
		c.patch(j)
		return dst
	case "||":
		if lv, ok := c.tryFold(n.L); ok {
			if lv.truthy() {
				return c.constReg(intVal(1))
			}
			r := c.expr(n.R)
			dst := c.newReg(intType)
			c.emit(instr{op: opBool, dst: dst, a: r}, n)
			return dst
		}
		dst := c.newReg(intType)
		l := c.expr(n.L)
		jt := c.emit(instr{op: opJumpT, a: l}, nil)
		r := c.expr(n.R)
		c.emit(instr{op: opBool, dst: dst, a: r}, n)
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jt)
		c.emit(instr{op: opMov, dst: dst, a: c.constReg(intVal(1))}, n)
		c.patch(j)
		return dst
	}
	op, ok := arithIdx[n.Op]
	if !ok {
		c.expr(n.L)
		c.expr(n.R)
		dst := c.newReg(typeOf(n))
		c.emitErr(errAt(n, "unsupported operator %q", n.Op))
		return dst
	}
	common, _, _ := binType(op, typeOf(n.L), typeOf(n.R))
	l := c.operand(n.L, common)
	r := c.operand(n.R, common)
	return c.arith(op, l, r, n)
}

func (c *compiler) call(n *Call) int32 {
	switch n.Fun {
	case "get_global_id", "get_local_id", "get_group_id", "get_local_size", "get_global_size", "get_num_groups":
		var sel int64
		switch n.Fun {
		case "get_global_id":
			sel = wiGlobalID
		case "get_local_id":
			sel = wiLocalID
		case "get_group_id":
			sel = wiGroupID
		case "get_local_size":
			sel = wiLocalSize
		case "get_global_size":
			sel = wiGlobalSize
		default:
			sel = wiNumGroups
		}
		d := c.exprAs(n.Args[0], intType)
		dst := c.newReg(intType)
		c.emit(instr{op: opWI, dst: dst, a: d, imm: sel}, n)
		return dst
	case "barrier":
		c.expr(n.Args[0])
		c.emit(instr{op: opBarrier}, n)
		return c.constReg(intVal(0))
	case "mad", "fma":
		ta, tb, tc := typeOf(n.Args[0]), typeOf(n.Args[1]), typeOf(n.Args[2])
		cm, tm, _ := binType(aMul, ta, tb)
		cs, _, _ := binType(aAdd, tm, tc)
		a := c.operand(n.Args[0], cm)
		b := c.operand(n.Args[1], cm)
		cc := c.operand(n.Args[2], cs)
		t, msg := madType(ta, tb, tc)
		if msg != "" {
			dst := c.newReg(t)
			c.emitErr(errAt(n, "%s", msg))
			return dst
		}
		if tm.IsInt() && tm != cs {
			// An integer product meets an addend of another type: it
			// converts between the multiply and the add.
			return c.arith(aAdd, c.arith(aMul, a, b, n), cc, n)
		}
		dst := c.newReg(t)
		c.emit(instr{op: opMad, dst: dst, a: a, b: b, c: cc}, n)
		return dst
	case "min", "max":
		t := typeOf(n)
		a := c.operand(n.Args[0], t)
		b := c.operand(n.Args[1], t)
		dst := c.newReg(t)
		op := opMin
		if n.Fun == "max" {
			op = opMax
		}
		c.emit(instr{op: op, dst: dst, a: a, b: b}, n)
		return dst
	case "vload2", "vload4", "vload8":
		w := int64(n.Fun[5] - '0')
		off := c.exprAs(n.Args[0], intType)
		slot := c.arraySlot(n.Args[1])
		if slot < 0 {
			return c.newReg(typeOf(n))
		}
		dst := c.newReg(typeOf(n))
		if c.p.slotT[slot].Lanes != 1 {
			c.emitErr(errAt(n, "vload from a vector array"))
			return dst
		}
		c.emit(instr{op: opVload, dst: dst, a: slot, b: off, imm: w}, n)
		return dst
	case "vstore2", "vstore4", "vstore8":
		w := int64(n.Fun[6] - '0')
		v := c.expr(n.Args[0])
		off := c.exprAs(n.Args[1], intType)
		slot := c.arraySlot(n.Args[2])
		if slot < 0 {
			return c.newReg(typeOf(n))
		}
		switch lanes := c.p.regT[v].Lanes; {
		case lanes != int(w):
			c.emitErr(errAt(n, "vstore%d given %d lanes", w, lanes))
		case c.p.slotT[slot].Lanes != 1:
			c.emitErr(errAt(n, "vstore to a vector array"))
		default:
			c.emit(instr{op: opVstore, a: slot, b: off, c: v, imm: w}, n)
		}
		return c.constReg(intVal(0))
	}
	c.emitErr(errAt(n, "unknown function %q", n.Fun))
	return c.newReg(typeOf(n))
}

// arraySlot resolves x to an array slot, or emits the fault for a
// non-array operand, or for an array of integers, and returns -1.
func (c *compiler) arraySlot(x Expr) int32 {
	id, ok := x.(*Ident)
	if !ok {
		c.emitErr(errAt(x, "expected array identifier"))
		return -1
	}
	ref, ok := c.lookup(id.Name)
	if !ok {
		c.emitErr(errAt(x, "undeclared identifier %q", id.Name))
		return -1
	}
	if ref.arr < 0 {
		c.emitErr(errAt(x, "%q is not an array", id.Name))
		return -1
	}
	if c.p.slotT[ref.arr].IsInt() {
		c.emitErr(errAt(x, "integer arrays are not supported"))
		return -1
	}
	return ref.arr
}

// --- Statements --------------------------------------------------------------

// block compiles b in a new scope. In the kernel's top block, the
// __local declarations only bind their names to the hoisted slots:
// they are materialized per work-group.
func (c *compiler) block(b *Block, top bool) {
	c.push()
	locals := 0
	for _, s := range b.Stmts {
		if d, ok := s.(*Decl); ok && top && d.Space == LocalMem {
			c.define(d.Name, slotRef{reg: -1, arr: c.p.localSlots[locals]})
			locals++
			continue
		}
		c.stmt(s)
	}
	c.pop()
}

func (c *compiler) stmt(s Stmt) {
	switch n := s.(type) {
	case *Decl:
		c.decl(n)
	case *Assign:
		c.assign(n)
	case *ExprStmt:
		c.expr(n.X)
	case *If:
		jf := c.emit(instr{op: opJumpF, a: c.expr(n.Cond)}, nil)
		c.block(n.Then, false)
		if n.Else == nil {
			c.patch(jf)
			return
		}
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jf)
		c.stmt(n.Else)
		c.patch(j)
	case *For:
		c.push()
		if n.Init != nil {
			c.stmt(n.Init)
		}
		top := len(c.p.code)
		jf := -1
		if n.Cond != nil {
			jf = c.emit(instr{op: opJumpF, a: c.expr(n.Cond)}, nil)
		}
		c.block(n.Body, false)
		if n.Post != nil {
			c.stmt(n.Post)
		}
		c.emit(instr{op: opJump, imm: int64(top)}, nil)
		if jf >= 0 {
			c.patch(jf)
		}
		c.pop()
	case *Block:
		c.block(n, false)
	}
}

func (c *compiler) decl(d *Decl) {
	if d.ArrayLen != nil {
		n, err := constFold(d.ArrayLen)
		if err != nil {
			// The checker validated this; a failure here means the AST
			// changed under us — refuse to compile.
			panic(err)
		}
		slot := c.newArrSlot(d.Type)
		if d.Type.IsInt() {
			// Integer arrays fault when the declaration executes, lazily,
			// so dead declarations stay dead.
			line, col := d.Pos()
			c.emitErr(&Error{Line: line, Col: col, Msg: "integer arrays are not supported"})
		} else {
			c.p.defs = append(c.p.defs, arrayDef{t: d.Type, total: int(n) * d.Type.Lanes})
			c.emit(instr{op: opAllocArr, a: slot, imm: int64(len(c.p.defs) - 1)}, nil)
		}
		c.define(d.Name, slotRef{reg: -1, arr: slot})
		return
	}
	t := canon(d.Type)
	var reg int32
	if d.Init != nil {
		r := c.expr(d.Init)
		reg = c.newReg(t)
		c.convertInto(reg, r, d.Type, d.Init)
	} else {
		reg = c.newReg(t)
		// Uninitialized declarations re-zero on every execution (a
		// loop body's declaration is a fresh variable per iteration).
		c.emit(instr{op: opMov, dst: reg, a: c.constReg(value{t: t})}, nil)
	}
	c.define(d.Name, slotRef{reg: reg, arr: -1, t: t})
}

// lhsType is the type an assignment stores into lhs: a variable's type
// or an array's element type (int when lhs faults instead).
func (c *compiler) lhsType(lhs Expr) Type {
	switch n := lhs.(type) {
	case *Ident:
		if ref, ok := c.lookup(n.Name); ok && ref.arr < 0 {
			return ref.t
		}
	case *Index:
		if id, ok := n.X.(*Ident); ok {
			if ref, ok := c.lookup(id.Name); ok && ref.arr >= 0 {
				return c.p.slotT[ref.arr]
			}
		}
	}
	return intType
}

func (c *compiler) assign(a *Assign) {
	var bin int64 = -1
	switch a.Op {
	case "=":
	case "+=":
		bin = aAdd
	case "-=":
		bin = aSub
	case "*=":
		bin = aMul
	case "/=":
		bin = aDiv
	default:
		c.expr(a.RHS)
		c.emitErr(errAt(a.LHS, "unsupported assignment operator %q", a.Op))
		return
	}
	var rhs int32
	if bin < 0 {
		rhs = c.expr(a.RHS)
	} else {
		common, _, _ := binType(bin, c.lhsType(a.LHS), typeOf(a.RHS))
		rhs = c.operand(a.RHS, common)
	}
	switch lhs := a.LHS.(type) {
	case *Ident:
		ref, ok := c.lookup(lhs.Name)
		if !ok {
			c.emitErr(errAt(lhs, "undeclared identifier %q", lhs.Name))
			return
		}
		if ref.arr >= 0 {
			c.emitErr(errAt(lhs, "cannot assign to array %q", lhs.Name))
			return
		}
		if bin >= 0 {
			rhs = c.arith(bin, ref.reg, rhs, a.RHS)
		}
		c.convertInto(ref.reg, rhs, ref.t, a.RHS)
	case *Index:
		slot := c.arraySlot(lhs.X)
		if slot < 0 {
			return
		}
		idx := c.exprAs(lhs.Idx, intType)
		if bin < 0 {
			// The index is bounds-checked before the stored value is
			// converted; opCheckIdx keeps that fault order without paying
			// for a load.
			c.emit(instr{op: opCheckIdx, a: slot, b: idx}, lhs)
		} else {
			cur := c.newReg(c.p.slotT[slot])
			c.emit(instr{op: opLoad, dst: cur, a: slot, b: idx}, lhs)
			rhs = c.arith(bin, cur, rhs, a.RHS)
		}
		conv := c.convert(rhs, c.p.slotT[slot], a.RHS)
		c.emit(instr{op: opStore, a: slot, b: idx, c: conv}, lhs)
	default:
		c.emitErr(errAt(a.LHS, "left-hand side is not assignable"))
	}
}
