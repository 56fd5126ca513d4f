package clc

import "fmt"

// value is a constant scalar or vector: a folded expression, a
// constant-pool entry or a bound scalar argument. Registers live in the
// lane executor's storage instead (vm.go).
type value struct {
	t Type
	i int64       // scalar integer payload (t.IsInt() && Lanes == 1)
	f [16]float64 // float lanes
}

func intVal(v int64) value { return value{t: Type{Base: BaseInt, Lanes: 1}, i: v} }

func floatVal(base BaseType, lanes int) value { return value{t: Type{Base: base, Lanes: lanes}} }

// lane returns lane l as float64, broadcasting scalars. Pointer
// receiver: value is 152 bytes.
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

// convertFault is the conversion rule: the fault message for converting
// a from-typed value to to, or "". The compiler emits an opErr for it
// and the constant folder panics with it.
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

// convertVal coerces v to a declared type (scalar conversions and
// scalar→vector broadcast). It is the constant folder's conversion; the
// lane executor's opConvert applies the same asInt/round32 steps lane
// by lane.
func convertVal(v value, to Type, at Expr) value {
	if msg := convertFault(v.t, to); msg != "" {
		panic(errAt(at, "%s", msg))
	}
	switch {
	case v.t == to:
		return v
	case to.IsInt():
		return intVal(v.asInt())
	}
	out := value{t: to}
	for l := 0; l < to.Lanes; l++ {
		out.f[l] = round32(to.Base, v.lane(l))
	}
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

// The static type rules. The checker gives every expression its type
// with them, the compiler emits an opErr wherever they name a fault,
// and the constant folder applies them to values; the lane executor
// never sees a type it has to check.

// canon is the register type of a declared or cast-to type: integer
// types collapse to a scalar int (uint behaves as int, and the subset
// has no integer vectors; converting to one faults).
func canon(t Type) Type {
	if t.IsInt() {
		return intType
	}
	return t
}

// binType is the rule of binary operator op (an arithOps index) on l and
// r: the common type the operands convert to, the result type, or the
// fault message. Two integers stay int. Otherwise the usual arithmetic
// conversions apply: an int operand converts to the floating side's
// base, double wins over float, and a scalar broadcasts to the other
// side's vector width. Comparisons yield an int.
func binType(op int64, l, r Type) (common, res Type, msg string) {
	if l.IsInt() && r.IsInt() {
		return intType, intType, ""
	}
	base := BaseFloat
	if l.Base == BaseDouble || r.Base == BaseDouble || l.IsInt() || r.IsInt() {
		base = BaseDouble
		if l.Base == BaseFloat || r.Base == BaseFloat {
			if l.Base != BaseDouble && r.Base != BaseDouble {
				base = BaseFloat
			}
		}
	}
	common = Type{Base: base, Lanes: max(l.Lanes, r.Lanes)}
	switch {
	case l.Lanes > 1 && r.Lanes > 1 && l.Lanes != r.Lanes:
		return common, intType, fmt.Sprintf("vector width mismatch %s vs %s", l, r)
	case op >= aLt:
		if common.Lanes != 1 {
			return common, intType, "vector comparisons are not supported"
		}
		return common, intType, ""
	case op > aDiv:
		return common, intType, fmt.Sprintf("unsupported float operator %q", arithOps[op])
	}
	return common, common, ""
}

// operandType is what an operand of type t converts to before an
// operation whose common type is common: an int meeting a floating
// operand converts to a scalar of its base; anything else stays.
func operandType(t, common Type) Type {
	if t.IsInt() && !common.IsInt() {
		return Type{Base: common.Base, Lanes: 1}
	}
	return t
}

// condType is the type of a ternary whose arms have types t and f: both
// arms convert to their common type, as the operands of a binary
// operator do.
func condType(t, f Type) (Type, string) {
	common, _, msg := binType(aAdd, t, f)
	if msg != "" {
		return intType, msg
	}
	return common, ""
}

// madType is the type of mad(a, b, c) and fma(a, b, c): a multiply and
// then an add, each under binType, or the first fault.
func madType(a, b, c Type) (Type, string) {
	_, prod, msg := binType(aMul, a, b)
	if msg != "" {
		return intType, msg
	}
	_, sum, msg := binType(aAdd, prod, c)
	return sum, msg
}

// minMaxType is min's and max's type: int for two ints, else a double
// scalar of both operands' lane 0 whatever their types (a quirk the
// engine golden pins).
func minMaxType(a, b Type) Type {
	if a.IsInt() && b.IsInt() {
		return intType
	}
	return typeDoubleScalar
}

// floatArith applies a float arithmetic operator (aAdd..aDiv, checked
// by binType) in float64; callers round with round32.
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

// binopVal evaluates l op r under binType, with float results rounded
// per their base. It is the constant folder's arithmetic; the lane
// executor runs the same intArith, floatArith and round32 steps over
// its lanes after the compiler's conversions.
func binopVal(op string, l, r value, at Expr) value {
	idx, ok := arithIdx[op]
	if !ok {
		panic(errAt(at, "unsupported operator %q", op))
	}
	if l.t.IsInt() && r.t.IsInt() {
		x, msg := intArith(idx, l.i, r.i)
		if msg != "" {
			panic(errAt(at, "%s", msg))
		}
		return intVal(x)
	}
	common, res, msg := binType(idx, l.t, r.t)
	if msg != "" {
		panic(errAt(at, "%s", msg))
	}
	a := convertVal(l, operandType(l.t, common), at)
	b := convertVal(r, operandType(r.t, common), at)
	if idx >= aLt {
		return boolVal(compare(idx, a.lane(0), b.lane(0)))
	}
	out := value{t: res}
	for i := 0; i < res.Lanes; i++ {
		out.f[i] = round32(res.Base, floatArith(idx, a.lane(i), b.lane(i)))
	}
	return out
}
