package clc

import (
	"fmt"
	"math"

	"oclgemm/internal/clsim"
)

// value is a runtime scalar or vector.
type value struct {
	t Type
	i int64       // scalar integer payload (t.IsInt() && Lanes == 1)
	f [16]float64 // float lanes
}

func intVal(v int64) value { return value{t: Type{Base: BaseInt, Lanes: 1}, i: v} }

func floatVal(base BaseType, lanes int) value { return value{t: Type{Base: base, Lanes: lanes}} }

// lane returns lane l as float64, broadcasting scalars. Pointer
// receiver: value is 160 bytes and these accessors sit on the hot path.
func (v *value) lane(l int) float64 {
	if v.t.IsInt() {
		return float64(v.i)
	}
	if v.t.Lanes == 1 {
		return v.f[0]
	}
	return v.f[l]
}

func (v *value) truthy() bool {
	if v.t.IsInt() {
		return v.i != 0
	}
	return v.f[0] != 0
}

// asInt coerces a scalar value to an integer.
func (v *value) asInt() int64 {
	if v.t.IsInt() {
		return v.i
	}
	return int64(v.f[0])
}

func round32(base BaseType, x float64) float64 {
	if base == BaseFloat {
		return float64(float32(x))
	}
	return x
}

// arrayStore backs an array variable: a __local or __private array, or
// a __global kernel buffer. Exactly one of f32/f64 is set.
type arrayStore struct {
	t   Type // element type
	f32 []float32
	f64 []float64
}

func (a *arrayStore) length() int {
	if a.f64 != nil {
		return len(a.f64) / a.t.Lanes
	}
	return len(a.f32) / a.t.Lanes
}

// loadInto reads element idx into dst (which must not alias the store).
func (a *arrayStore) loadInto(dst *value, idx int64, e Expr) {
	n := int64(a.length())
	if idx < 0 || idx >= n {
		panic(errAt(e, "index %d out of range [0,%d)", idx, n))
	}
	base := idx * int64(a.t.Lanes)
	if a.t.Lanes == 1 {
		dst.t = a.t
		if a.f64 != nil {
			dst.f[0] = a.f64[base]
		} else {
			dst.f[0] = float64(a.f32[base])
		}
		return
	}
	for l := 0; l < a.t.Lanes; l++ {
		if a.f64 != nil {
			dst.f[l] = a.f64[base+int64(l)]
		} else {
			dst.f[l] = float64(a.f32[base+int64(l)])
		}
	}
	dst.t = a.t
}

func (a *arrayStore) load(idx int64, e Expr) value {
	var v value
	a.loadInto(&v, idx, e)
	return v
}

func (a *arrayStore) store(idx int64, v *value, e Expr) {
	n := int64(a.length())
	if idx < 0 || idx >= n {
		panic(errAt(e, "index %d out of range [0,%d)", idx, n))
	}
	base := idx * int64(a.t.Lanes)
	for l := 0; l < a.t.Lanes; l++ {
		x := v.lane(l)
		if a.f64 != nil {
			a.f64[base+int64(l)] = x
		} else {
			a.f32[base+int64(l)] = float32(x)
		}
	}
}

// loadFast is loadInto without the bounds check, for accesses the
// optimizer proved in range (opLoadK). Same lane/conversion semantics.
func (a *arrayStore) loadFast(dst *value, idx int64) {
	base := idx * int64(a.t.Lanes)
	if a.t.Lanes == 1 {
		dst.t = a.t
		if a.f64 != nil {
			dst.f[0] = a.f64[base]
		} else {
			dst.f[0] = float64(a.f32[base])
		}
		return
	}
	for l := 0; l < a.t.Lanes; l++ {
		if a.f64 != nil {
			dst.f[l] = a.f64[base+int64(l)]
		} else {
			dst.f[l] = float64(a.f32[base+int64(l)])
		}
	}
	dst.t = a.t
}

// storeFast is store without the bounds check (opStoreK).
func (a *arrayStore) storeFast(idx int64, v *value) {
	base := idx * int64(a.t.Lanes)
	for l := 0; l < a.t.Lanes; l++ {
		x := v.lane(l)
		if a.f64 != nil {
			a.f64[base+int64(l)] = x
		} else {
			a.f32[base+int64(l)] = float32(x)
		}
	}
}

// vloadInto reads w consecutive elements starting at elementOffset*w
// into dst (which must not alias the store).
func (a *arrayStore) vloadInto(dst *value, w int, off int64, e Expr) {
	if a.t.Lanes != 1 {
		panic(errAt(e, "vload from a vector array"))
	}
	start := off * int64(w)
	if start < 0 || start+int64(w) > int64(a.length()) {
		panic(errAt(e, "vload%d offset %d out of range", w, off))
	}
	for l := 0; l < w; l++ {
		if a.f64 != nil {
			dst.f[l] = a.f64[start+int64(l)]
		} else {
			dst.f[l] = float64(a.f32[start+int64(l)])
		}
	}
	dst.t = Type{Base: a.t.Base, Lanes: w}
}

func (a *arrayStore) vload(w int, off int64, e Expr) value {
	var v value
	a.vloadInto(&v, w, off, e)
	return v
}

func (a *arrayStore) vstore(w int, v *value, off int64, e Expr) {
	if a.t.Lanes != 1 {
		panic(errAt(e, "vstore to a vector array"))
	}
	start := off * int64(w)
	if start < 0 || start+int64(w) > int64(a.length()) {
		panic(errAt(e, "vstore%d offset %d out of range", w, off))
	}
	for l := 0; l < w; l++ {
		if a.f64 != nil {
			a.f64[start+int64(l)] = v.lane(l)
		} else {
			a.f32[start+int64(l)] = float32(v.lane(l))
		}
	}
}

// variable is a scope slot: either a value or an array.
type variable struct {
	val value
	arr *arrayStore
}

// env is the interpreter scope stack.
type env struct {
	scopes []map[string]*variable
}

func (e *env) push() { e.scopes = append(e.scopes, map[string]*variable{}) }
func (e *env) pop()  { e.scopes = e.scopes[:len(e.scopes)-1] }

func (e *env) define(name string, v *variable) { e.scopes[len(e.scopes)-1][name] = v }

func (e *env) lookup(name string) (*variable, bool) {
	for i := len(e.scopes) - 1; i >= 0; i-- {
		if v, ok := e.scopes[i][name]; ok {
			return v, true
		}
	}
	return nil, false
}

// Bind attaches argument values to a kernel, producing a
// clsim.WorkItemKernel. Supported argument kinds: int, float32,
// float64 for scalar parameters; []float32 and []float64 for __global
// pointer parameters.
func (k *KernelDecl) Bind(args ...any) (*BoundKernel, error) {
	if len(args) != len(k.Params) {
		return nil, fmt.Errorf("clc: kernel %s takes %d arguments, got %d", k.Name, len(k.Params), len(args))
	}
	b := &BoundKernel{decl: k}
	for i, p := range k.Params {
		v := &variable{}
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
		b.args = append(b.args, v)
	}
	// Hoist top-level __local declarations: they are work-group state.
	for _, s := range k.Body.Stmts {
		if d, ok := s.(*Decl); ok && d.Space == LocalMem {
			if d.ArrayLen == nil {
				return nil, fmt.Errorf("clc: kernel %s: scalar __local variables are not supported", k.Name)
			}
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
	args   []*variable
	locals []*Decl

	// prog is the compiled bytecode (nil when compilation failed, in
	// which case Run falls back to the AST interpreter); progOpt is the
	// optimized program (== prog when the optimizer made no changes).
	prog        *compiledKernel
	progOpt     *compiledKernel
	forceInterp bool
	noOpt       bool
	fuel        int64
}

// Name implements clsim.WorkItemKernel.
func (b *BoundKernel) Name() string { return b.decl.Name }

// SetInterp forces the AST-interpreter path — the differential oracle —
// when on. The default runs compiled bytecode.
func (b *BoundKernel) SetInterp(on bool) { b.forceInterp = on }

// SetOptimize selects between the optimized and the straight-from-the-
// compiler bytecode (the differential escape hatch mirroring SetInterp).
// The default is optimized unless CLC_DISABLE_OPT is set in the
// environment. Both programs are observationally identical: bit-equal
// outputs, byte-equal fault strings, identical fuel accounting.
func (b *BoundKernel) SetOptimize(on bool) { b.noOpt = !on }

// Optimized reports whether Run would execute the optimized program.
func (b *BoundKernel) Optimized() bool {
	return b.prog != nil && !b.forceInterp && !b.noOpt && b.progOpt != nil
}

// SetFuel bounds loop back-edges per work-item: once a work-item
// completes n loop iterations (summed across all loops) the run faults
// with a budget error instead of spinning forever. Zero or negative
// disables the bound. Both engines count identically, so a fuel fault
// is deterministic and engine-independent.
func (b *BoundKernel) SetFuel(n int64) { b.fuel = n }

// errLoopBudget is the fault raised when SetFuel's budget runs out. It
// is a shared sentinel so both engines produce byte-identical errors.
var errLoopBudget = &Error{Msg: "loop iteration budget exhausted"}

// Engine reports which execution engine Run will use: "bytecode" or
// "interp".
func (b *BoundKernel) Engine() string {
	if b.prog != nil && !b.forceInterp {
		return "bytecode"
	}
	return "interp"
}

// groupState carries a work-group's __local arrays in both engine
// representations: by name for the interpreter's scopes, by hoisting
// ordinal for the VM's array slots.
type groupState struct {
	byName map[string]*arrayStore
	slots  []*arrayStore
}

// SetupGroup allocates the kernel's __local arrays through the
// work-group's accounting (so capacity overruns surface exactly as on
// a real device).
func (b *BoundKernel) SetupGroup(g *clsim.Group) any {
	gs := &groupState{byName: make(map[string]*arrayStore, len(b.locals))}
	for _, d := range b.locals {
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
		gs.byName[d.Name] = st
		gs.slots = append(gs.slots, st)
	}
	return gs
}

// Run implements clsim.WorkItemKernel: execute the body for one
// work-item, on the bytecode VM by default and on the AST interpreter
// when forced (or when bytecode compilation failed).
func (b *BoundKernel) Run(it *clsim.Item, sharedAny any) {
	gs := sharedAny.(*groupState)
	if b.prog != nil && !b.forceInterp {
		if p := b.progOpt; p != nil && !b.noOpt {
			p.run(it, b.args, gs, b.fuel)
		} else {
			b.prog.run(it, b.args, gs, b.fuel)
		}
		return
	}
	in := &interp{item: it, fuel: b.fuel}
	in.env.push()
	for i, p := range b.decl.Params {
		in.env.define(p.Name, b.args[i])
	}
	for name, st := range gs.byName {
		in.env.define(name, &variable{arr: st})
	}
	in.execBlockInCurrentScope(b.decl.Body, true)
}

// interp executes statements for one work-item.
type interp struct {
	item *clsim.Item
	env  env
	fuel int64 // remaining loop back-edges; <= 0 disables the bound
}

func (in *interp) execBlockInCurrentScope(b *Block, skipLocals bool) {
	in.env.push()
	defer in.env.pop()
	for _, s := range b.Stmts {
		if skipLocals {
			if d, ok := s.(*Decl); ok && d.Space == LocalMem {
				continue // already materialized per group
			}
		}
		in.exec(s)
	}
}

func (in *interp) exec(s Stmt) {
	switch n := s.(type) {
	case *Decl:
		in.execDecl(n)
	case *Assign:
		in.execAssign(n)
	case *ExprStmt:
		in.eval(n.X)
	case *If:
		c := in.eval(n.Cond)
		if c.truthy() {
			in.execBlockInCurrentScope(n.Then, false)
		} else if n.Else != nil {
			in.exec(n.Else)
		}
	case *For:
		in.env.push()
		if n.Init != nil {
			in.exec(n.Init)
		}
		for {
			if n.Cond != nil {
				c := in.eval(n.Cond)
				if !c.truthy() {
					break
				}
			}
			in.execBlockInCurrentScope(n.Body, false)
			if n.Post != nil {
				in.exec(n.Post)
			}
			// Mirrors the VM's backward-jump accounting exactly: one
			// unit per completed loop iteration.
			if in.fuel > 0 {
				in.fuel--
				if in.fuel == 0 {
					panic(errLoopBudget)
				}
			}
		}
		in.env.pop()
	case *Block:
		in.execBlockInCurrentScope(n, false)
	}
}

func (in *interp) execDecl(d *Decl) {
	v := &variable{}
	if d.ArrayLen != nil {
		n, err := constFold(d.ArrayLen)
		if err != nil {
			panic(err)
		}
		if d.Type.IsInt() {
			line, col := d.Pos()
			panic(&Error{Line: line, Col: col, Msg: "integer arrays are not supported"})
		}
		st := &arrayStore{t: d.Type}
		total := int(n) * d.Type.Lanes
		if d.Type.Base == BaseDouble {
			st.f64 = make([]float64, total)
		} else {
			st.f32 = make([]float32, total)
		}
		v.arr = st
	} else {
		if d.Init != nil {
			v.val = convertVal(in.eval(d.Init), d.Type, d.Init)
		} else {
			if d.Type.IsInt() {
				v.val = intVal(0)
			} else {
				v.val = floatVal(d.Type.Base, d.Type.Lanes)
			}
		}
	}
	in.env.define(d.Name, v)
}

var (
	intType          = Type{Base: BaseInt, Lanes: 1}
	typeDoubleScalar = Type{Base: BaseDouble, Lanes: 1}
	typeFloatScalar  = Type{Base: BaseFloat, Lanes: 1}
)

func setInt(dst *value, x int64) {
	dst.t = intType
	dst.i = x
}

func setBool(dst *value, b bool) {
	dst.t = intType
	if b {
		dst.i = 1
	} else {
		dst.i = 0
	}
}

// copyVal copies src into dst, touching only the active lanes (lanes
// past src.t.Lanes are never read, so stale data there is harmless).
func copyVal(dst, src *value) {
	if dst == src {
		return
	}
	dst.t = src.t
	if src.t.IsInt() {
		dst.i = src.i
		return
	}
	for l := 0; l < src.t.Lanes; l++ {
		dst.f[l] = src.f[l]
	}
}

// convertInto coerces v to a declared type (scalar conversions and
// scalar→vector broadcast) into dst; dst may alias v. It is the single
// conversion semantics shared by the AST interpreter and the bytecode
// VM (convertVal is its value wrapper).
func convertInto(dst, v *value, to Type, at Expr) {
	if v.t == to {
		copyVal(dst, v)
		return
	}
	if to.IsInt() {
		if to.Lanes != 1 {
			panic(errAt(at, "integer vectors are not supported"))
		}
		setInt(dst, v.asInt())
		return
	}
	if v.t.Lanes == 1 {
		x := round32(to.Base, v.lane(0))
		for l := 0; l < to.Lanes; l++ {
			dst.f[l] = x
		}
		dst.t = to
		return
	}
	if v.t.Lanes != to.Lanes {
		panic(errAt(at, "cannot convert %s to %s", v.t, to))
	}
	for l := 0; l < to.Lanes; l++ {
		dst.f[l] = round32(to.Base, v.f[l])
	}
	dst.t = to
}

func convertVal(v value, to Type, at Expr) value {
	var out value
	convertInto(&out, &v, to, at)
	return out
}

func (in *interp) execAssign(a *Assign) {
	rhs := in.eval(a.RHS)
	apply := func(cur value) value {
		switch a.Op {
		case "=":
			return rhs
		case "+=":
			return binopVal("+", cur, rhs, a.RHS)
		case "-=":
			return binopVal("-", cur, rhs, a.RHS)
		case "*=":
			return binopVal("*", cur, rhs, a.RHS)
		case "/=":
			return binopVal("/", cur, rhs, a.RHS)
		}
		panic(errAt(a.LHS, "unsupported assignment operator %q", a.Op))
	}
	switch lhs := a.LHS.(type) {
	case *Ident:
		v, ok := in.env.lookup(lhs.Name)
		if !ok {
			panic(errAt(lhs, "undeclared identifier %q", lhs.Name))
		}
		if v.arr != nil {
			panic(errAt(lhs, "cannot assign to array %q", lhs.Name))
		}
		nv := apply(v.val)
		v.val = convertVal(nv, v.val.t, a.RHS)
	case *Index:
		arr := in.arrayOf(lhs.X)
		iv := in.eval(lhs.Idx)
		idx := iv.asInt()
		cur := arr.load(idx, lhs)
		nv := convertVal(apply(cur), arr.t, a.RHS)
		arr.store(idx, &nv, lhs)
	default:
		panic(errAt(a.LHS, "left-hand side is not assignable"))
	}
}

func (in *interp) arrayOf(e Expr) *arrayStore {
	id, ok := e.(*Ident)
	if !ok {
		panic(errAt(e, "expected array identifier"))
	}
	v, ok := in.env.lookup(id.Name)
	if !ok {
		panic(errAt(e, "undeclared identifier %q", id.Name))
	}
	if v.arr == nil {
		panic(errAt(e, "%q is not an array", id.Name))
	}
	return v.arr
}

func (in *interp) eval(e Expr) value {
	switch n := e.(type) {
	case *IntLit:
		return intVal(n.Value)
	case *FloatLit:
		base := BaseDouble
		if n.Single {
			base = BaseFloat
		}
		v := floatVal(base, 1)
		v.f[0] = round32(base, n.Value)
		return v
	case *Ident:
		if c, ok := builtinConsts[n.Name]; ok {
			return intVal(c)
		}
		v, ok := in.env.lookup(n.Name)
		if !ok {
			panic(errAt(e, "undeclared identifier %q", n.Name))
		}
		if v.arr != nil {
			panic(errAt(e, "array %q used as a value", n.Name))
		}
		return v.val
	case *Binary:
		if n.Op == "&&" {
			l := in.eval(n.L)
			if !l.truthy() {
				return intVal(0)
			}
			r := in.eval(n.R)
			return boolVal(r.truthy())
		}
		if n.Op == "||" {
			l := in.eval(n.L)
			if l.truthy() {
				return intVal(1)
			}
			r := in.eval(n.R)
			return boolVal(r.truthy())
		}
		return binopVal(n.Op, in.eval(n.L), in.eval(n.R), e)
	case *Unary:
		x := in.eval(n.X)
		switch n.Op {
		case "-":
			if x.t.IsInt() {
				return intVal(-x.i)
			}
			out := floatVal(x.t.Base, x.t.Lanes)
			for l := 0; l < x.t.Lanes; l++ {
				out.f[l] = -x.f[l]
			}
			return out
		case "!":
			return boolVal(!x.truthy())
		case "~":
			return intVal(^x.asInt())
		}
		panic(errAt(e, "unsupported unary operator %q", n.Op))
	case *Cond:
		c := in.eval(n.C)
		if c.truthy() {
			return in.eval(n.T)
		}
		return in.eval(n.F)
	case *Call:
		return in.call(n)
	case *Index:
		arr := in.arrayOf(n.X)
		iv := in.eval(n.Idx)
		return arr.load(iv.asInt(), e)
	case *Cast:
		if len(n.Args) == 1 {
			return convertVal(in.eval(n.Args[0]), n.To, e)
		}
		// Vector constructor with Lanes components.
		out := floatVal(n.To.Base, n.To.Lanes)
		for l, a := range n.Args {
			av := in.eval(a)
			out.f[l] = round32(n.To.Base, av.lane(0))
		}
		return out
	}
	panic(errAt(e, "unsupported expression"))
}

func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// binopInto evaluates l op r into dst (dst may alias l or r) with C
// numeric promotion and lane broadcasting; float results round per the
// wider base's precision. op is an arithOps index. It is the single
// arithmetic semantics shared by the AST interpreter and the bytecode
// VM (binopVal is its string-keyed value wrapper).
func binopInto(dst *value, op int64, l, r *value, at Expr) {
	if l.t.IsInt() && r.t.IsInt() {
		a, b := l.i, r.i
		switch op {
		case aAdd:
			setInt(dst, a+b)
		case aSub:
			setInt(dst, a-b)
		case aMul:
			setInt(dst, a*b)
		case aDiv:
			if b == 0 {
				panic(errAt(at, "integer division by zero"))
			}
			setInt(dst, a/b)
		case aMod:
			if b == 0 {
				panic(errAt(at, "integer modulo by zero"))
			}
			setInt(dst, a%b)
		case aShl:
			setInt(dst, a<<uint(b))
		case aShr:
			setInt(dst, a>>uint(b))
		case aAnd:
			setInt(dst, a&b)
		case aOr:
			setInt(dst, a|b)
		case aXor:
			setInt(dst, a^b)
		case aLt:
			setBool(dst, a < b)
		case aLe:
			setBool(dst, a <= b)
		case aGt:
			setBool(dst, a > b)
		case aGe:
			setBool(dst, a >= b)
		case aEq:
			setBool(dst, a == b)
		case aNe:
			setBool(dst, a != b)
		default:
			panic(errAt(at, "unsupported integer operator %q", arithOps[op]))
		}
		return
	}
	// Float path with promotion.
	base := BaseFloat
	if l.t.Base == BaseDouble || r.t.Base == BaseDouble || l.t.IsInt() || r.t.IsInt() {
		// int op float promotes to the float operand's base; when one
		// side is double the result is double. An int operand adopts
		// the float side's base.
		base = BaseDouble
		if l.t.Base == BaseFloat || r.t.Base == BaseFloat {
			if l.t.Base != BaseDouble && r.t.Base != BaseDouble {
				base = BaseFloat
			}
		}
	}
	lanes := l.t.Lanes
	if r.t.Lanes > lanes {
		lanes = r.t.Lanes
	}
	if l.t.Lanes > 1 && r.t.Lanes > 1 && l.t.Lanes != r.t.Lanes {
		panic(errAt(at, "vector width mismatch %s vs %s", l.t, r.t))
	}
	if op >= aLt {
		if lanes != 1 {
			panic(errAt(at, "vector comparisons are not supported"))
		}
		a, b := l.lane(0), r.lane(0)
		switch op {
		case aLt:
			setBool(dst, a < b)
		case aLe:
			setBool(dst, a <= b)
		case aGt:
			setBool(dst, a > b)
		case aGe:
			setBool(dst, a >= b)
		case aEq:
			setBool(dst, a == b)
		default:
			setBool(dst, a != b)
		}
		return
	}
	if lanes == 1 {
		a, b := l.lane(0), r.lane(0)
		dst.f[0] = round32(base, floatArith(op, a, b, at))
		dst.t = Type{Base: base, Lanes: 1}
		return
	}
	// A broadcast operand's lane(i) rereads lane 0, so when dst aliases
	// an operand the result must be staged before writing.
	var f [16]float64
	for i := 0; i < lanes; i++ {
		f[i] = round32(base, floatArith(op, l.lane(i), r.lane(i), at))
	}
	dst.t = Type{Base: base, Lanes: lanes}
	dst.f = f
}

func floatArith(op int64, a, b float64, at Expr) float64 {
	switch op {
	case aAdd:
		return a + b
	case aSub:
		return a - b
	case aMul:
		return a * b
	case aDiv:
		return a / b
	}
	panic(errAt(at, "unsupported float operator %q", arithOps[op]))
}

func binopVal(op string, l, r value, at Expr) value {
	idx, ok := arithIdx[op]
	if !ok {
		panic(errAt(at, "unsupported operator %q", op))
	}
	var out value
	binopInto(&out, idx, &l, &r, at)
	return out
}

func (in *interp) call(c *Call) value {
	switch c.Fun {
	case "get_global_id", "get_local_id", "get_group_id", "get_local_size", "get_global_size", "get_num_groups":
		dv := in.eval(c.Args[0])
		d := int(dv.asInt())
		if d < 0 || d > 1 {
			panic(errAt(c, "dimension %d out of range (2-D NDRange)", d))
		}
		switch c.Fun {
		case "get_global_id":
			return intVal(int64(in.item.GlobalID(d)))
		case "get_local_id":
			return intVal(int64(in.item.LocalID(d)))
		case "get_group_id":
			return intVal(int64(in.item.GroupID(d)))
		case "get_local_size":
			return intVal(int64(in.item.LocalSize(d)))
		case "get_global_size":
			return intVal(int64(in.item.GlobalSize(d)))
		default:
			return intVal(int64(in.item.GlobalSize(d) / in.item.LocalSize(d)))
		}
	case "barrier":
		in.eval(c.Args[0])
		in.item.Barrier()
		return intVal(0)
	case "mad", "fma":
		a := in.eval(c.Args[0])
		b := in.eval(c.Args[1])
		cc := in.eval(c.Args[2])
		prod := binopVal("*", a, b, c)
		return binopVal("+", prod, cc, c)
	case "min", "max":
		a := in.eval(c.Args[0])
		b := in.eval(c.Args[1])
		if a.t.IsInt() && b.t.IsInt() {
			if c.Fun == "min" {
				return intVal(min(a.i, b.i))
			}
			return intVal(max(a.i, b.i))
		}
		x, y := a.lane(0), b.lane(0)
		v := floatVal(BaseDouble, 1)
		if c.Fun == "min" {
			v.f[0] = math.Min(x, y)
		} else {
			v.f[0] = math.Max(x, y)
		}
		return v
	case "vload2", "vload4", "vload8":
		w := int(c.Fun[5] - '0')
		offv := in.eval(c.Args[0])
		off := offv.asInt()
		arr := in.arrayOf(c.Args[1])
		return arr.vload(w, off, c)
	case "vstore2", "vstore4", "vstore8":
		w := int(c.Fun[6] - '0')
		v := in.eval(c.Args[0])
		offv := in.eval(c.Args[1])
		off := offv.asInt()
		arr := in.arrayOf(c.Args[2])
		if v.t.Lanes != w {
			panic(errAt(c, "vstore%d given %d lanes", w, v.t.Lanes))
		}
		arr.vstore(w, &v, off, c)
		return intVal(0)
	}
	panic(errAt(c, "unknown function %q", c.Fun))
}
