package clc

// The bytecode compiler lowers a checked kernel AST into a compact
// register program executed by vm.go. Evaluation is lazy and in source
// order: a runtime fault (with its positioned error message) happens
// exactly when execution reaches the faulting expression, and dead code
// never faults. Names resolve to register/array slots at compile time,
// integer-constant subexpressions fold to loads from a constant pool,
// and control flow becomes jumps over a flat instruction slice.

import "fmt"

type opcode uint8

const (
	opConst      opcode = iota // r[dst] = consts[imm]
	opMov                      // r[dst] = r[a]
	opBool                     // r[dst] = boolVal(r[a] truthy)
	opBin                      // r[dst] = r[a] arithOps[imm] r[b]
	opNeg                      // r[dst] = -r[a]
	opNot                      // r[dst] = !r[a]
	opBitNot                   // r[dst] = ^r[a]
	opConvert                  // r[dst] = convert r[a] to types[imm]
	opConvertDyn               // r[dst] = convert r[a] to arrs[b].t
	opVecCtor                  // r[dst] = types[imm] vector from r[a..a+c-1]
	opJump                     // pc = imm
	opJumpF                    // if !r[a] truthy: pc = imm
	opJumpT                    // if r[a] truthy: pc = imm
	opWI                       // r[dst] = work-item query imm, dim r[a]
	opBarrier                  // work-group barrier
	opMad                      // r[dst] = r[a]*r[b] + r[c]
	opMin                      // r[dst] = min(r[a], r[b])
	opMax                      // r[dst] = max(r[a], r[b])
	opLoad                     // r[dst] = arrs[a][r[b]]
	opCheckIdx                 // bounds-check arrs[a][r[b]] without loading
	opStore                    // arrs[a][r[b]] = r[c]
	opVload                    // r[dst] = vload_imm(r[b], arrs[a])
	opVstore                   // vstore_imm(r[c], r[b], arrs[a])
	opAllocArr                 // arrs[a] = fresh zeroed array defs[imm]
	opErr                      // panic errs[imm]
	opHalt                     // end of kernel body

	// Optimizer-emitted opcodes (see optimize.go). The compiler never
	// produces these; they exist only in optimized programs.
	opLoadK     // r[dst] = arrs[a][imm], bounds statically proven
	opStoreK    // arrs[a][imm] = r[c], bounds statically proven
	opLoadBin   // r[dst] = arrs[slot][r[b]] <op> r[a] (imm packs op/side/slot)
	opBinStore  // arrs[slot][r[c]] = r[a] <op> r[b] (imm packs op/slot)
	opLoadStore // arrs[dslot][r[c]] = arrs[sslot][r[b]] (imm packs sslot/dslot)
	opLoadMad   // r[dst] = r[a]*r[b] + arrs[imm][r[c]]
	opMadAcc    // arrs[imm][r[c]] = r[a]*r[b] + arrs[imm][r[c]]
	opMadAccD   // opMadAcc with proven double-scalar operands and elements
	opMadAccF   // opMadAcc with proven float-scalar operands and elements
	opLoadD     // opLoad with proven double-scalar element and int index
	opLoadF     // opLoad with proven float-scalar element and int index
	opStoreD    // opStore with proven double-scalar value and element
	opStoreF    // opStore with proven float-scalar value and element
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
// aXxx constants below mirror the array order; binopInto dispatches on
// them so the VM never touches operator strings.
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

	// paramRegs[i] is the register for scalar parameter i (else -1);
	// paramArrs[i] the array slot for pointer parameter i (else -1).
	paramRegs []int32
	paramArrs []int32
	// localSlots maps the hoisting ordinal of each top-level __local
	// array (the order Bind collects them) to its array slot.
	localSlots []int32
	// slotT is each array slot's declared element type.
	slotT []Type

	// Lane storage layout (layoutLanes): register r's float lanes start
	// at row foff[r]; rows counts them all, scratch registers included.
	foff []int32
	rows int
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
// variable's runtime value type, the conversion target of assignments)
// or an array slot.
type slotRef struct {
	reg int32
	arr int32
	t   Type
}

type compiler struct {
	p      *compiledKernel
	scopes []map[string]slotRef
	// free is the next free register; statement compilation saves and
	// restores it as a watermark so temporaries are reused while named
	// declarations keep their registers.
	free int32
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
	c := &compiler{p: &compiledKernel{}}
	c.push()
	for _, prm := range k.Params {
		if prm.Pointer {
			slot := c.newArrSlot(Type{Base: prm.Type.Base, Lanes: 1})
			c.define(prm.Name, slotRef{reg: -1, arr: slot})
			c.p.paramRegs = append(c.p.paramRegs, -1)
			c.p.paramArrs = append(c.p.paramArrs, slot)
			continue
		}
		reg := c.allocReg()
		// Bind only ever produces scalar argument values (int collapses
		// uint), so the variable's runtime type is scalar regardless of
		// the declared lane count.
		t := Type{Base: prm.Type.Base, Lanes: 1}
		if prm.Type.IsInt() {
			t = Type{Base: BaseInt, Lanes: 1}
		}
		c.define(prm.Name, slotRef{reg: reg, arr: -1, t: t})
		c.p.paramRegs = append(c.p.paramRegs, reg)
		c.p.paramArrs = append(c.p.paramArrs, -1)
	}
	// Hoisted top-level __local arrays, in the order Bind collects them.
	for _, s := range k.Body.Stmts {
		d, ok := s.(*Decl)
		if !ok || d.Space != LocalMem {
			continue
		}
		slot := c.newArrSlot(d.Type)
		c.define(d.Name, slotRef{reg: -1, arr: slot})
		c.p.localSlots = append(c.p.localSlots, slot)
	}
	c.block(k.Body, true)
	c.emit(instr{op: opHalt}, nil)
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

func (c *compiler) allocReg() int32 {
	r := c.free
	c.free++
	if int(c.free) > c.p.nreg {
		c.p.nreg = int(c.free)
	}
	return r
}

func (c *compiler) temp() int32 { return c.allocReg() }

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

func (c *compiler) constIdx(v value) int64 {
	c.p.consts = append(c.p.consts, v)
	return int64(len(c.p.consts) - 1)
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

func (c *compiler) constReg(v value, at Expr) int32 {
	dst := c.temp()
	c.emit(instr{op: opConst, dst: dst, imm: c.constIdx(v)}, at)
	return dst
}

// emitErr lowers a fault that evaluation hits at this point into an
// instruction that panics with the positioned error. Dead code never
// reaches it, so failure stays lazy.
func (c *compiler) emitErr(e *Error) {
	c.p.errs = append(c.p.errs, e)
	c.emit(instr{op: opErr, imm: int64(len(c.p.errs) - 1)}, nil)
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
		return intVal(n.Value), true
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
				return intVal(-x.i), true
			}
			out := floatVal(x.t.Base, x.t.Lanes)
			for l := 0; l < x.t.Lanes; l++ {
				out.f[l] = -x.f[l]
			}
			return out, true
		case "!":
			return boolVal(!x.truthy()), true
		case "~":
			return intVal(^x.asInt()), true
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
		if cv.truthy() {
			return c.foldExpr(n.T)
		}
		return c.foldExpr(n.F)
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

// expr compiles e and returns the register holding its value. The
// returned register may be a named variable's home register; callers
// must not write to it.
func (c *compiler) expr(e Expr) int32 {
	if v, ok := c.tryFold(e); ok {
		return c.constReg(v, e)
	}
	switch n := e.(type) {
	case *Ident:
		// Builtin constants fold above (they shadow declarations).
		ref, ok := c.lookup(n.Name)
		if !ok {
			c.emitErr(errAt(e, "undeclared identifier %q", n.Name))
			return c.temp()
		}
		if ref.arr >= 0 {
			c.emitErr(errAt(e, "array %q used as a value", n.Name))
			return c.temp()
		}
		return ref.reg
	case *Binary:
		return c.binary(n)
	case *Unary:
		x := c.expr(n.X)
		dst := c.temp()
		switch n.Op {
		case "-":
			c.emit(instr{op: opNeg, dst: dst, a: x}, e)
		case "!":
			c.emit(instr{op: opNot, dst: dst, a: x}, e)
		case "~":
			c.emit(instr{op: opBitNot, dst: dst, a: x}, e)
		default:
			c.emitErr(errAt(e, "unsupported unary operator %q", n.Op))
		}
		return dst
	case *Cond:
		if cv, ok := c.tryFold(n.C); ok {
			// The untaken branch is never evaluated.
			if cv.truthy() {
				return c.expr(n.T)
			}
			return c.expr(n.F)
		}
		dst := c.temp()
		cv := c.expr(n.C)
		jf := c.emit(instr{op: opJumpF, a: cv}, nil)
		tv := c.expr(n.T)
		c.emit(instr{op: opMov, dst: dst, a: tv}, nil)
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jf)
		fv := c.expr(n.F)
		c.emit(instr{op: opMov, dst: dst, a: fv}, nil)
		c.patch(j)
		return dst
	case *Call:
		return c.call(n)
	case *Index:
		slot := c.arraySlot(n.X)
		if slot < 0 {
			// The array fault comes before evaluating the index.
			return c.temp()
		}
		idx := c.expr(n.Idx)
		dst := c.temp()
		c.emit(instr{op: opLoad, dst: dst, a: slot, b: idx}, e)
		return dst
	case *Cast:
		if len(n.Args) == 1 {
			r := c.expr(n.Args[0])
			dst := c.temp()
			c.emit(instr{op: opConvert, dst: dst, a: r, imm: c.typeIdx(n.To)}, e)
			return dst
		}
		// Vector constructor: components land in a consecutive register
		// block.
		block := make([]int32, len(n.Args))
		for i := range n.Args {
			block[i] = c.temp()
		}
		for i, a := range n.Args {
			save := c.free
			r := c.expr(a)
			c.emit(instr{op: opMov, dst: block[i], a: r}, nil)
			c.free = save
		}
		dst := c.temp()
		c.emit(instr{op: opVecCtor, dst: dst, a: block[0], c: int32(len(n.Args)), imm: c.typeIdx(n.To)}, e)
		return dst
	}
	c.emitErr(errAt(e, "unsupported expression"))
	return c.temp()
}

func (c *compiler) binary(n *Binary) int32 {
	switch n.Op {
	case "&&":
		if lv, ok := c.tryFold(n.L); ok {
			if !lv.truthy() {
				return c.constReg(intVal(0), n)
			}
			r := c.expr(n.R)
			dst := c.temp()
			c.emit(instr{op: opBool, dst: dst, a: r}, n)
			return dst
		}
		dst := c.temp()
		l := c.expr(n.L)
		jf := c.emit(instr{op: opJumpF, a: l}, nil)
		r := c.expr(n.R)
		c.emit(instr{op: opBool, dst: dst, a: r}, n)
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jf)
		c.emit(instr{op: opConst, dst: dst, imm: c.constIdx(intVal(0))}, n)
		c.patch(j)
		return dst
	case "||":
		if lv, ok := c.tryFold(n.L); ok {
			if lv.truthy() {
				return c.constReg(intVal(1), n)
			}
			r := c.expr(n.R)
			dst := c.temp()
			c.emit(instr{op: opBool, dst: dst, a: r}, n)
			return dst
		}
		dst := c.temp()
		l := c.expr(n.L)
		jt := c.emit(instr{op: opJumpT, a: l}, nil)
		r := c.expr(n.R)
		c.emit(instr{op: opBool, dst: dst, a: r}, n)
		j := c.emit(instr{op: opJump}, nil)
		c.patch(jt)
		c.emit(instr{op: opConst, dst: dst, imm: c.constIdx(intVal(1))}, n)
		c.patch(j)
		return dst
	}
	l := c.expr(n.L)
	r := c.expr(n.R)
	dst := c.temp()
	idx, ok := arithIdx[n.Op]
	if !ok {
		c.emitErr(errAt(n, "unsupported operator %q", n.Op))
		return dst
	}
	c.emit(instr{op: opBin, dst: dst, a: l, b: r, imm: idx}, n)
	return dst
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
		d := c.expr(n.Args[0])
		dst := c.temp()
		c.emit(instr{op: opWI, dst: dst, a: d, imm: sel}, n)
		return dst
	case "barrier":
		c.expr(n.Args[0])
		c.emit(instr{op: opBarrier}, n)
		return c.constReg(intVal(0), n)
	case "mad", "fma":
		a := c.expr(n.Args[0])
		b := c.expr(n.Args[1])
		cc := c.expr(n.Args[2])
		dst := c.temp()
		c.emit(instr{op: opMad, dst: dst, a: a, b: b, c: cc}, n)
		return dst
	case "min", "max":
		a := c.expr(n.Args[0])
		b := c.expr(n.Args[1])
		dst := c.temp()
		op := opMin
		if n.Fun == "max" {
			op = opMax
		}
		c.emit(instr{op: op, dst: dst, a: a, b: b}, n)
		return dst
	case "vload2", "vload4", "vload8":
		w := int64(n.Fun[5] - '0')
		off := c.expr(n.Args[0])
		slot := c.arraySlot(n.Args[1])
		if slot < 0 {
			return c.temp()
		}
		dst := c.temp()
		c.emit(instr{op: opVload, dst: dst, a: slot, b: off, imm: w}, n)
		return dst
	case "vstore2", "vstore4", "vstore8":
		w := int64(n.Fun[6] - '0')
		v := c.expr(n.Args[0])
		off := c.expr(n.Args[1])
		slot := c.arraySlot(n.Args[2])
		if slot < 0 {
			return c.temp()
		}
		c.emit(instr{op: opVstore, a: slot, b: off, c: v, imm: w}, n)
		return c.constReg(intVal(0), n)
	}
	c.emitErr(errAt(n, "unknown function %q", n.Fun))
	return c.temp()
}

// arraySlot resolves x to an array slot, or emits the fault for a
// non-array operand and returns -1.
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
	return ref.arr
}

// --- Statements --------------------------------------------------------------

func (c *compiler) block(b *Block, skipLocals bool) {
	c.push()
	for _, s := range b.Stmts {
		if skipLocals {
			if d, ok := s.(*Decl); ok && d.Space == LocalMem {
				continue // materialized per work-group
			}
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
		save := c.free
		c.assign(n)
		c.free = save
	case *ExprStmt:
		save := c.free
		c.expr(n.X)
		c.free = save
	case *If:
		save := c.free
		cv := c.expr(n.Cond)
		jf := c.emit(instr{op: opJumpF, a: cv}, nil)
		c.free = save
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
			save := c.free
			cv := c.expr(n.Cond)
			jf = c.emit(instr{op: opJumpF, a: cv}, nil)
			c.free = save
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
	var reg int32
	if d.Init != nil {
		save := c.free
		r := c.expr(d.Init)
		c.free = save
		reg = c.allocReg()
		c.emit(instr{op: opConvert, dst: reg, a: r, imm: c.typeIdx(d.Type)}, d.Init)
	} else {
		reg = c.allocReg()
		// Uninitialized declarations re-zero on every execution (a
		// loop body's declaration is a fresh variable per iteration).
		zero := intVal(0)
		if !d.Type.IsInt() {
			zero = floatVal(d.Type.Base, d.Type.Lanes)
		}
		c.emit(instr{op: opConst, dst: reg, imm: c.constIdx(zero)}, nil)
	}
	t := d.Type
	if t.IsInt() {
		t = Type{Base: BaseInt, Lanes: 1}
	}
	c.define(d.Name, slotRef{reg: reg, arr: -1, t: t})
}

func (c *compiler) assign(a *Assign) {
	rhs := c.expr(a.RHS)
	var bin int64 = -1
	switch a.Op {
	case "=":
	case "+=":
		bin = arithIdx["+"]
	case "-=":
		bin = arithIdx["-"]
	case "*=":
		bin = arithIdx["*"]
	case "/=":
		bin = arithIdx["/"]
	default:
		c.emitErr(errAt(a.LHS, "unsupported assignment operator %q", a.Op))
		return
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
		if bin < 0 {
			c.emit(instr{op: opConvert, dst: ref.reg, a: rhs, imm: c.typeIdx(ref.t)}, a.RHS)
			return
		}
		tmp := c.temp()
		c.emit(instr{op: opBin, dst: tmp, a: ref.reg, b: rhs, imm: bin}, a.RHS)
		c.emit(instr{op: opConvert, dst: ref.reg, a: tmp, imm: c.typeIdx(ref.t)}, a.RHS)
	case *Index:
		slot := c.arraySlot(lhs.X)
		if slot < 0 {
			return
		}
		idx := c.expr(lhs.Idx)
		if bin < 0 {
			// The index is bounds-checked before the stored value is
			// converted; opCheckIdx keeps that fault order without paying
			// for a load.
			c.emit(instr{op: opCheckIdx, a: slot, b: idx}, lhs)
			conv := c.temp()
			c.emit(instr{op: opConvertDyn, dst: conv, a: rhs, b: slot}, a.RHS)
			c.emit(instr{op: opStore, a: slot, b: idx, c: conv}, lhs)
			return
		}
		cur := c.temp()
		c.emit(instr{op: opLoad, dst: cur, a: slot, b: idx}, lhs)
		tmp := c.temp()
		c.emit(instr{op: opBin, dst: tmp, a: cur, b: rhs, imm: bin}, a.RHS)
		conv := c.temp()
		c.emit(instr{op: opConvertDyn, dst: conv, a: tmp, b: slot}, a.RHS)
		c.emit(instr{op: opStore, a: slot, b: idx, c: conv}, lhs)
	default:
		c.emitErr(errAt(a.LHS, "left-hand side is not assignable"))
	}
}
