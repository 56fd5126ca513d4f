package clc

import (
	"fmt"
	"math"
)

// value is a constant scalar or vector: a folded expression, a
// constant-pool entry or a bound scalar argument. Registers live in the
// lane executor's storage instead (vm.go).
type value struct {
	t Type
	i int64       // scalar integer payload (t.IsInt() && Lanes == 1)
	f [16]float64 // float lanes
}

// valueBits is a value's bit pattern, a map key under which two values
// match exactly when they are the same constant: 0.0 and -0.0 differ
// (they compare equal as floats), and a NaN matches itself.
type valueBits struct {
	t Type
	i int64
	f [16]uint64
}

func (v *value) bits() valueBits {
	k := valueBits{t: v.t, i: v.i}
	for l := range v.f {
		k.f[l] = math.Float64bits(v.f[l])
	}
	return k
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
	typeUintScalar   = Type{Base: BaseUint, Lanes: 1}
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
// lane executor's opConvert applies the same asInt/wrapInt/round32
// steps lane by lane.
func convertVal(v value, to Type, at Expr) value {
	if msg := convertFault(v.t, to); msg != "" {
		panic(errAt(at, "%s", msg))
	}
	switch {
	case to.IsInt():
		return value{t: to, i: wrapInt(to, v.asInt())}
	case v.t == to:
		return v
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

// wrapInt is x as a value of the integer type t: an int wraps to 32-bit
// two's complement, a uint to 32 bits unsigned. Every integer register
// and constant holds its value in this form, so comparing two held
// uints as int64s compares them unsigned.
func wrapInt(t Type, x int64) int64 {
	if t.Base == BaseUint {
		return int64(uint32(x))
	}
	return int64(int32(x))
}

// intArith is the integer semantics of every arithOps operator on two
// operands of the integer type t, held as wrapInt holds them: a result
// wraps to t, a shift counts modulo 32, and a comparison yields 0 or 1.
// A non-empty msg is the fault.
func intArith(op int64, t Type, a, b int64) (x int64, msg string) {
	switch op {
	case aAdd:
		x = a + b
	case aSub:
		x = a - b
	case aMul:
		x = a * b
	case aDiv:
		if b == 0 {
			return 0, "integer division by zero"
		}
		x = a / b
	case aMod:
		if b == 0 {
			return 0, "integer modulo by zero"
		}
		x = a % b
	case aShl:
		x = a << (uint64(b) & 31)
	case aShr:
		x = a >> (uint64(b) & 31)
	case aAnd:
		x = a & b
	case aOr:
		x = a | b
	case aXor:
		x = a ^ b
	default:
		if op >= aLt && op <= aNe {
			return b2i(compare(op, a, b)), ""
		}
		return 0, fmt.Sprintf("unsupported integer operator %q", arithOps[op])
	}
	return wrapInt(t, x), ""
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

// canon is the register type of a declared or cast-to type: an integer
// type is a scalar of its base (the subset has no integer vectors;
// converting to one faults).
func canon(t Type) Type {
	if t.IsInt() {
		return Type{Base: t.Base, Lanes: 1}
	}
	return t
}

// binType is the rule of binary operator op (an arithOps index) on l and
// r: the common type the operands convert to, the result type, or the
// fault message. Two integers meet as uint when either is one, else as
// int. Otherwise the usual arithmetic conversions apply: an int operand
// converts to the floating side's base, double wins over float, and a
// scalar broadcasts to the other side's vector width. Comparisons yield
// an int.
func binType(op int64, l, r Type) (common, res Type, msg string) {
	if l.IsInt() && r.IsInt() {
		common = intType
		if l.Base == BaseUint || r.Base == BaseUint {
			common = Type{Base: BaseUint, Lanes: 1}
		}
		if op >= aLt {
			return common, intType, ""
		}
		return common, common, ""
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
// operation whose common type is common: an integer converts to the
// common integer type, or to a scalar of the floating side's base;
// anything else stays.
func operandType(t, common Type) Type {
	if t.IsInt() {
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

// minMaxType is min's and max's type: the common integer type for two
// integers, else a double scalar of both operands' lane 0 whatever their
// types (a quirk the engine golden pins).
func minMaxType(a, b Type) Type {
	if a.IsInt() && b.IsInt() {
		common, _, _ := binType(aAdd, a, b)
		return common
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
	common, res, msg := binType(idx, l.t, r.t)
	if msg != "" {
		panic(errAt(at, "%s", msg))
	}
	a := convertVal(l, operandType(l.t, common), at)
	b := convertVal(r, operandType(r.t, common), at)
	if common.IsInt() {
		x, msg := intArith(idx, common, a.i, b.i)
		if msg != "" {
			panic(errAt(at, "%s", msg))
		}
		return value{t: res, i: x}
	}
	if idx >= aLt {
		return boolVal(compare(idx, a.lane(0), b.lane(0)))
	}
	out := value{t: res}
	for i := 0; i < res.Lanes; i++ {
		out.f[i] = round32(res.Base, floatArith(idx, a.lane(i), b.lane(i)))
	}
	return out
}
