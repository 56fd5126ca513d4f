package clc

import "fmt"

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

// convertFault is convertInto's type check: the fault message for
// converting a from-typed value to to, or "". It is the single
// conversion rule of the lane executor and the constant folder.
func convertFault(from, to Type) string {
	switch {
	case from == to:
		return ""
	case to.IsInt():
		if to.Lanes != 1 {
			return "integer vectors are not supported"
		}
	case from.Lanes != 1 && from.Lanes != to.Lanes:
		return fmt.Sprintf("cannot convert %s to %s", from, to)
	}
	return ""
}

// convertInto coerces v to a declared type (scalar conversions and
// scalar→vector broadcast) into dst; dst may alias v. It is the
// constant folder's conversion; the lane executor applies the same
// convertFault check and asInt/round32 steps lane by lane.
func convertInto(dst, v *value, to Type, at Expr) {
	if msg := convertFault(v.t, to); msg != "" {
		panic(errAt(at, "%s", msg))
	}
	if v.t == to {
		copyVal(dst, v)
		return
	}
	if to.IsInt() {
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

// intArith is the integer semantics of every arithOps operator:
// comparisons yield 0 or 1. A non-empty msg is the fault.
func intArith(op int64, a, b int64) (x int64, msg string) {
	switch op {
	case aAdd:
		return a + b, ""
	case aSub:
		return a - b, ""
	case aMul:
		return a * b, ""
	case aDiv:
		if b == 0 {
			return 0, "integer division by zero"
		}
		return a / b, ""
	case aMod:
		if b == 0 {
			return 0, "integer modulo by zero"
		}
		return a % b, ""
	case aShl:
		return a << uint(b), ""
	case aShr:
		return a >> uint(b), ""
	case aAnd:
		return a & b, ""
	case aOr:
		return a | b, ""
	case aXor:
		return a ^ b, ""
	}
	if op >= aLt && op <= aNe {
		return b2i(compare(op, a, b)), ""
	}
	return 0, fmt.Sprintf("unsupported integer operator %q", arithOps[op])
}

// compare evaluates comparison operator op (aLt..aNe).
func compare[T int64 | float64](op int64, a, b T) bool {
	switch op {
	case aLt:
		return a < b
	case aLe:
		return a <= b
	case aGt:
		return a > b
	case aGe:
		return a >= b
	case aEq:
		return a == b
	}
	return a != b
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// floatBinType is the promotion rule of a binary operation with at
// least one non-integer operand: the result type, or the fault message.
// An int operand adopts the float side's base; when one side is double
// the result is double. Comparisons yield an int.
func floatBinType(op int64, l, r Type) (Type, string) {
	base := BaseFloat
	if l.Base == BaseDouble || r.Base == BaseDouble || l.IsInt() || r.IsInt() {
		base = BaseDouble
		if l.Base == BaseFloat || r.Base == BaseFloat {
			if l.Base != BaseDouble && r.Base != BaseDouble {
				base = BaseFloat
			}
		}
	}
	lanes := max(l.Lanes, r.Lanes)
	if l.Lanes > 1 && r.Lanes > 1 && l.Lanes != r.Lanes {
		return Type{}, fmt.Sprintf("vector width mismatch %s vs %s", l, r)
	}
	if op >= aLt {
		if lanes != 1 {
			return Type{}, "vector comparisons are not supported"
		}
		return intType, ""
	}
	if op > aDiv {
		return Type{}, fmt.Sprintf("unsupported float operator %q", arithOps[op])
	}
	return Type{Base: base, Lanes: lanes}, ""
}

// binopInto evaluates l op r into dst (dst may alias l or r) with C
// numeric promotion and lane broadcasting; float results round per the
// wider base's precision. op is an arithOps index. It is the constant
// folder's arithmetic (binopVal is its string-keyed value wrapper); the
// lane executor runs the same intArith, floatBinType, floatArith and
// round32 steps over its lanes.
func binopInto(dst *value, op int64, l, r *value, at Expr) {
	if l.t.IsInt() && r.t.IsInt() {
		x, msg := intArith(op, l.i, r.i)
		if msg != "" {
			panic(errAt(at, "%s", msg))
		}
		setInt(dst, x)
		return
	}
	t, msg := floatBinType(op, l.t, r.t)
	if msg != "" {
		panic(errAt(at, "%s", msg))
	}
	if op >= aLt {
		setBool(dst, compare(op, l.lane(0), r.lane(0)))
		return
	}
	// A broadcast operand's lane(i) rereads lane 0, so when dst aliases
	// an operand the result must be staged before writing.
	var f [16]float64
	for i := 0; i < t.Lanes; i++ {
		f[i] = round32(t.Base, floatArith(op, l.lane(i), r.lane(i)))
	}
	dst.t = t
	copy(dst.f[:t.Lanes], f[:t.Lanes])
}

// floatArith applies a float arithmetic operator (aAdd..aDiv, checked
// by floatBinType) in float64; callers round with round32.
func floatArith(op int64, a, b float64) float64 {
	switch op {
	case aAdd:
		return a + b
	case aSub:
		return a - b
	case aMul:
		return float64(a * b)
	}
	return a / b
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
