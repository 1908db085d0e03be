// Package fpmath provides IEEE-754 double precision bit utilities used
// throughout the FPVM reproduction: NaN taxonomy, value classification,
// and exact floating point exception detection via error-free transforms.
//
// The simulated machine (internal/machine) must decide, for every FP
// instruction it executes natively, whether the operation would raise an
// IEEE exception (Invalid, Denormal operand, Divide-by-zero, Overflow,
// Underflow, Precision/inexact). Real hardware reports these in MXCSR;
// we recover them in software, exactly, using math.FMA-based residues.
package fpmath

import "math"

// Exception flag bits, matching the layout of the low six MXCSR status
// bits on x64 (IE, DE, ZE, OE, UE, PE).
const (
	ExInvalid   uint32 = 1 << 0 // IE: invalid operation (NaN produced/consumed, 0*inf, ...)
	ExDenormal  uint32 = 1 << 1 // DE: denormal operand consumed
	ExDivZero   uint32 = 1 << 2 // ZE: finite / 0
	ExOverflow  uint32 = 1 << 3 // OE: rounded result overflowed to infinity
	ExUnderflow uint32 = 1 << 4 // UE: tiny result (denormal or zero from nonzero)
	ExPrecision uint32 = 1 << 5 // PE: result was rounded (inexact)

	ExAll uint32 = ExInvalid | ExDenormal | ExDivZero | ExOverflow | ExUnderflow | ExPrecision
)

// ExceptionNames maps single exception bits to their conventional names.
func ExceptionNames(flags uint32) []string {
	var out []string
	for _, e := range []struct {
		bit  uint32
		name string
	}{
		{ExInvalid, "Invalid"},
		{ExDenormal, "Denormal"},
		{ExDivZero, "DivZero"},
		{ExOverflow, "Overflow"},
		{ExUnderflow, "Underflow"},
		{ExPrecision, "Precision"},
	} {
		if flags&e.bit != 0 {
			out = append(out, e.name)
		}
	}
	return out
}

// IEEE-754 binary64 layout constants.
const (
	SignMask = uint64(1) << 63
	ExpMask  = uint64(0x7FF) << 52
	FracMask = (uint64(1) << 52) - 1
	QuietBit = uint64(1) << 51 // set => quiet NaN on x64

	ExpBias = 1023
)

// Bits returns the raw binary64 representation of f.
func Bits(f float64) uint64 { return math.Float64bits(f) }

// FromBits returns the float64 whose binary64 representation is b.
func FromBits(b uint64) float64 { return math.Float64frombits(b) }

// IsNaNBits reports whether b encodes any NaN.
func IsNaNBits(b uint64) bool {
	return b&ExpMask == ExpMask && b&FracMask != 0
}

// IsQuietNaNBits reports whether b encodes a quiet NaN.
func IsQuietNaNBits(b uint64) bool {
	return IsNaNBits(b) && b&QuietBit != 0
}

// IsSignalingNaNBits reports whether b encodes a signaling NaN.
func IsSignalingNaNBits(b uint64) bool {
	return IsNaNBits(b) && b&QuietBit == 0
}

// IsInfBits reports whether b encodes +/- infinity.
func IsInfBits(b uint64) bool {
	return b&ExpMask == ExpMask && b&FracMask == 0
}

// IsDenormal reports whether f is a nonzero subnormal number.
func IsDenormal(f float64) bool {
	b := Bits(f)
	return b&ExpMask == 0 && b&FracMask != 0
}

// IsZero reports whether f is +0 or -0.
func IsZero(f float64) bool { return Bits(f)&^SignMask == 0 }

// CanonicalNaN is the canonical quiet NaN x64 hardware generates
// (sign bit set, quiet bit set, remaining mantissa zero): 0xFFF8_0000_0000_0000.
const CanonicalNaN = SignMask | ExpMask | QuietBit

// Class describes the coarse IEEE class of a value.
type Class uint8

const (
	ClassZero Class = iota
	ClassDenormal
	ClassNormal
	ClassInf
	ClassQuietNaN
	ClassSignalingNaN
)

func (c Class) String() string {
	switch c {
	case ClassZero:
		return "zero"
	case ClassDenormal:
		return "denormal"
	case ClassNormal:
		return "normal"
	case ClassInf:
		return "inf"
	case ClassQuietNaN:
		return "qnan"
	case ClassSignalingNaN:
		return "snan"
	}
	return "invalid"
}

// Classify returns the IEEE class of bit pattern b.
func Classify(b uint64) Class {
	switch {
	case b&ExpMask == ExpMask && b&FracMask == 0:
		return ClassInf
	case b&ExpMask == ExpMask && b&QuietBit != 0:
		return ClassQuietNaN
	case b&ExpMask == ExpMask:
		return ClassSignalingNaN
	case b&^SignMask == 0:
		return ClassZero
	case b&ExpMask == 0:
		return ClassDenormal
	default:
		return ClassNormal
	}
}

// Op identifies a scalar double-precision arithmetic operation whose IEEE
// exception behaviour we can reproduce exactly.
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpSqrt
	OpMin
	OpMax
)

func (op Op) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpSub:
		return "sub"
	case OpMul:
		return "mul"
	case OpDiv:
		return "div"
	case OpSqrt:
		return "sqrt"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	}
	return "op?"
}

// Result carries the IEEE result of an operation together with the
// exception flags the operation raises under round-to-nearest-even.
type Result struct {
	Value float64
	Flags uint32
}

// Eval computes op(a, b) (b ignored for OpSqrt) in IEEE binary64 with
// round-to-nearest-even and returns the result plus the full set of
// exception flags the operation raises. The flags are exact: inexactness
// is decided with error-free transforms (2Sum, FMA residues), not
// heuristics.
//
// Semantics follow x64 SSE2 scalar instructions (addsd etc.):
//   - any SNaN input, or qNaN-producing combination of non-NaN inputs,
//     raises Invalid;
//   - a denormal input raises Denormal;
//   - finite/0 in div raises DivZero;
//   - overflow to infinity raises Overflow (+Precision);
//   - tiny and inexact results raise Underflow (+Precision);
//   - any rounding raises Precision.
func Eval(op Op, a, b float64) Result {
	var r Result

	ab, bb := Bits(a), Bits(b)
	unary := op == OpSqrt

	// Denormal operand detection precedes everything else on x64 when the
	// operand is actually consumed arithmetically.
	if IsDenormal(a) || (!unary && IsDenormal(b)) {
		r.Flags |= ExDenormal
	}

	// Signaling NaN inputs always raise Invalid.
	if IsSignalingNaNBits(ab) || (!unary && IsSignalingNaNBits(bb)) {
		r.Flags |= ExInvalid
		r.Value = quietedNaN(ab, bb, unary)
		return r
	}
	// Quiet NaN inputs propagate without Invalid (x64 semantics), except
	// min/max which return the second operand.
	if IsNaNBits(ab) || (!unary && IsNaNBits(bb)) {
		switch op {
		case OpMin, OpMax:
			// minsd/maxsd return src2 if either operand is NaN.
			r.Value = b
		default:
			r.Value = propagateNaN(ab, bb, unary)
		}
		return r
	}

	switch op {
	case OpAdd:
		r = evalAdd(a, b)
	case OpSub:
		r = evalAdd(a, -b)
	case OpMul:
		r = evalMul(a, b)
	case OpDiv:
		r = evalDiv(a, b)
	case OpSqrt:
		r = evalSqrt(a)
	case OpMin:
		r = evalMinMax(a, b, true)
	case OpMax:
		r = evalMinMax(a, b, false)
	}
	if IsDenormal(a) || (!unary && IsDenormal(b)) {
		r.Flags |= ExDenormal
	}
	return r
}

// EvalValue returns Eval(op, a, b).Value, bit for bit, without deciding
// the exception flags: no 2Sum or FMA residue is computed. It is for
// callers that own rounding themselves and discard the flags (Boxed
// IEEE); the machine, which traps on the flags, keeps Eval. NaN handling
// is Eval's: an sNaN input is quieted (the first operand's NaN first),
// a qNaN input propagates (min/max return the second operand), and an
// invalid combination of non-NaN inputs yields the canonical NaN.
func EvalValue(op Op, a, b float64) float64 {
	ab, bb := Bits(a), Bits(b)
	unary := op == OpSqrt
	if IsSignalingNaNBits(ab) || (!unary && IsSignalingNaNBits(bb)) {
		return quietedNaN(ab, bb, unary)
	}
	if IsNaNBits(ab) || (!unary && IsNaNBits(bb)) {
		if op == OpMin || op == OpMax {
			return b
		}
		return propagateNaN(ab, bb, unary)
	}
	switch op {
	case OpAdd:
		return addValue(a, b)
	case OpSub:
		return addValue(a, -b)
	case OpMul:
		if (math.IsInf(a, 0) && IsZero(b)) || (math.IsInf(b, 0) && IsZero(a)) {
			return FromBits(CanonicalNaN)
		}
		return a * b
	case OpDiv:
		if (math.IsInf(a, 0) && math.IsInf(b, 0)) || (IsZero(a) && IsZero(b)) {
			return FromBits(CanonicalNaN)
		}
		return a / b
	case OpSqrt:
		if math.Signbit(a) && !IsZero(a) {
			return FromBits(CanonicalNaN)
		}
		return math.Sqrt(a)
	case OpMin:
		return evalMinMax(a, b, true).Value
	case OpMax:
		return evalMinMax(a, b, false).Value
	}
	return 0
}

// addValue is evalAdd's value: inf + (-inf) is the canonical NaN.
func addValue(a, b float64) float64 {
	if math.IsInf(a, 0) && math.IsInf(b, 0) && math.Signbit(a) != math.Signbit(b) {
		return FromBits(CanonicalNaN)
	}
	return a + b
}

func quietedNaN(ab, bb uint64, unary bool) float64 {
	if IsNaNBits(ab) {
		return FromBits(ab | QuietBit)
	}
	if !unary && IsNaNBits(bb) {
		return FromBits(bb | QuietBit)
	}
	return FromBits(CanonicalNaN)
}

func propagateNaN(ab, bb uint64, unary bool) float64 {
	// x64 SSE: if src1 is NaN return quieted src1, else quieted src2.
	if IsNaNBits(ab) {
		return FromBits(ab | QuietBit)
	}
	if !unary {
		return FromBits(bb | QuietBit)
	}
	return FromBits(CanonicalNaN)
}

func evalAdd(a, b float64) Result {
	var r Result
	ia, ib := math.IsInf(a, 0), math.IsInf(b, 0)
	if ia && ib && math.Signbit(a) != math.Signbit(b) {
		// inf + (-inf): Invalid, canonical NaN.
		return Result{FromBits(CanonicalNaN), ExInvalid}
	}
	s := a + b
	r.Value = s
	if ia || ib {
		return r
	}
	if math.IsInf(s, 0) {
		r.Flags |= ExOverflow | ExPrecision
		return r
	}
	// 2Sum error-free transform: err == 0 iff a+b was exact.
	bv := s - a
	err := (a - (s - bv)) + (b - bv)
	if err != 0 {
		r.Flags |= ExPrecision
	}
	// Underflow: result is tiny (denormal range) and inexact.
	if IsDenormal(s) && err != 0 {
		r.Flags |= ExUnderflow
	}
	return r
}

func evalMul(a, b float64) Result {
	var r Result
	ia, ib := math.IsInf(a, 0), math.IsInf(b, 0)
	if (ia && IsZero(b)) || (ib && IsZero(a)) {
		return Result{FromBits(CanonicalNaN), ExInvalid}
	}
	p := a * b
	r.Value = p
	if ia || ib {
		return r
	}
	if math.IsInf(p, 0) {
		r.Flags |= ExOverflow | ExPrecision
		return r
	}
	if IsZero(p) {
		// A nonzero product that rounded all the way to zero (operand
		// zeros were handled above): always inexact + underflow.
		r.Flags |= ExPrecision | ExUnderflow
		return r
	}
	// FMA residue: err == 0 iff a*b was exact. The residue itself can
	// underflow when p is below ~2^-968 (the residue magnitude can be as
	// small as 2^(e-106)), so handle the whole tiny range by exact
	// power-of-two rescaling into the comfortably normal range.
	if math.Abs(p) < 0x1p-900 {
		// |p| < 2^-1022 implies |a| < 2^52 (since |b| >= 2^-1074), so
		// a*2^186 cannot overflow and the scaling is exact.
		sa := scaleUp186(a)
		sp := sa * b // normal-range product of the same real value * 2^186
		if math.FMA(sa, b, -sp) != 0 || scaleUp186(p) != sp {
			r.Flags |= ExPrecision | ExUnderflow
		}
		return r
	}
	if math.FMA(a, b, -p) != 0 {
		r.Flags |= ExPrecision
	}
	return r
}

// scaleUp186 multiplies by 2^186 exactly (in three exact power-of-two
// steps); callers guarantee no overflow.
func scaleUp186(x float64) float64 {
	return x * (1 << 62) * (1 << 62) * (1 << 62)
}

func evalDiv(a, b float64) Result {
	var r Result
	ia, ib := math.IsInf(a, 0), math.IsInf(b, 0)
	switch {
	case ia && ib:
		return Result{FromBits(CanonicalNaN), ExInvalid}
	case IsZero(a) && IsZero(b):
		return Result{FromBits(CanonicalNaN), ExInvalid}
	case IsZero(b) && !ia:
		return Result{a / b, ExDivZero}
	}
	q := a / b
	r.Value = q
	if ia || ib {
		return r
	}
	if math.IsInf(q, 0) {
		r.Flags |= ExOverflow | ExPrecision
		return r
	}
	if IsZero(q) {
		// Nonzero dividend, quotient rounded to zero: inexact underflow.
		r.Flags |= ExPrecision | ExUnderflow
		return r
	}
	if math.Abs(q) < 0x1p-900 || math.Abs(a) < 0x1p-900 {
		// The residue q·b − a has the dividend's magnitude scale, so a
		// tiny dividend (not just a tiny quotient) underflows it.
		// Tiny quotient: rescale the dividend by 2^186 (exact: |a| < 2^100
		// here since |q| < 2^-1022 and |b| <= 2^1024) and test in the
		// normal range.
		sa := scaleUp186(a)
		sq := sa / b
		if math.FMA(sq, b, -sa) != 0 || scaleUp186(q) != sq {
			r.Flags |= ExPrecision | ExUnderflow
		}
		return r
	}
	if math.FMA(q, b, -a) != 0 {
		r.Flags |= ExPrecision
	}
	return r
}

func evalSqrt(a float64) Result {
	var r Result
	if math.Signbit(a) && !IsZero(a) {
		return Result{FromBits(CanonicalNaN), ExInvalid}
	}
	s := math.Sqrt(a)
	r.Value = s
	if math.IsInf(s, 0) || IsZero(s) {
		return r
	}
	// Exactness via the FMA residue s·s − a. Near the bottom of the
	// normal range the residue itself would underflow and round to zero,
	// so rescale exactly by even powers of two first.
	sa, aa := s, a
	if a < 0x1p-900 {
		sa = s * 0x1p537           // exact: s < 2^-450
		aa = a * 0x1p537 * 0x1p537 // exact: a >= 2^-1074
	}
	if math.FMA(sa, sa, -aa) != 0 {
		r.Flags |= ExPrecision
	}
	return r
}

func evalMinMax(a, b float64, isMin bool) Result {
	// x64 minsd/maxsd: if a == b (incl. +0/-0) return src2; no exceptions
	// for non-NaN inputs.
	var v float64
	if isMin {
		if a < b {
			v = a
		} else {
			v = b
		}
	} else {
		if a > b {
			v = a
		} else {
			v = b
		}
	}
	return Result{Value: v}
}

// Compare performs an ordered comparison like ucomisd and reports the
// resulting predicate bits plus whether Invalid is raised (SNaN input).
type CompareResult struct {
	Less      bool
	Equal     bool
	Greater   bool
	Unordered bool
	Flags     uint32
}

// Compare compares a and b with ucomisd semantics: unordered if either is
// NaN; Invalid raised only for signaling NaNs (ucomisd) — comisd would
// raise for quiet NaNs too, selected by signalQuiet.
func Compare(a, b float64, signalQuiet bool) CompareResult {
	var c CompareResult
	ab, bb := Bits(a), Bits(b)
	if IsNaNBits(ab) || IsNaNBits(bb) {
		c.Unordered = true
		if IsSignalingNaNBits(ab) || IsSignalingNaNBits(bb) || signalQuiet {
			c.Flags |= ExInvalid
		}
		return c
	}
	switch {
	case a < b:
		c.Less = true
	case a > b:
		c.Greater = true
	default:
		c.Equal = true
	}
	return c
}

// NextAfter64 returns the next representable float64 after x towards y,
// used by interval arithmetic for outward rounding.
func NextAfter64(x, y float64) float64 { return math.Nextafter(x, y) }
