package clc

// value is a runtime scalar or vector.
type value struct {
	t Type
	i int64       // scalar integer payload (t.IsInt() && Lanes == 1)
	f [16]float64 // float lanes
}

func intVal(v int64) value { return value{t: Type{Base: BaseInt, Lanes: 1}, i: v} }

func floatVal(base BaseType, lanes int) value { return value{t: Type{Base: base, Lanes: lanes}} }

// lane returns lane l as float64, broadcasting scalars. Pointer
// receiver: value is 152 bytes and these accessors sit on the hot path.
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
// conversion semantics of the VM and the compiler's constant folder
// (convertVal is its value wrapper).
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

func boolVal(b bool) value {
	if b {
		return intVal(1)
	}
	return intVal(0)
}

// binopInto evaluates l op r into dst (dst may alias l or r) with C
// numeric promotion and lane broadcasting; float results round per the
// wider base's precision. op is an arithOps index. It is the single
// arithmetic semantics of the VM and the compiler's constant folder
// (binopVal is its string-keyed value wrapper).
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
