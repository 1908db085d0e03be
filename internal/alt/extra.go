package alt

import (
	"fpvm/internal/fpmath"
	"fpvm/internal/interval"
	"fpvm/internal/posit"
	"fpvm/internal/rational"
)

// ---------------------------------------------------------------- posit

// PositSystem computes in 64-bit posits (es=2).
type PositSystem struct {
	width uint8
}

// NewPosit returns the posit64 system.
func NewPosit() *PositSystem { return &PositSystem{width: 64} }

// NewPosit32 returns the posit32 system.
func NewPosit32() *PositSystem { return &PositSystem{width: 32} }

// Name distinguishes the widths: a posit32 snapshot must never validate
// against a posit64 run.
func (s *PositSystem) Name() string {
	if s.width == 32 {
		return "posit32"
	}
	return "posit"
}

func (s *PositSystem) Promote(f float64) (Value, uint64) {
	return posit.FromFloat64(s.width, f), 70
}

func (s *PositSystem) Demote(v Value) (float64, uint64) {
	return v.(posit.Posit).ToFloat64(), 55
}

func (s *PositSystem) Op(op fpmath.Op, a, b Value) (Value, uint64) {
	ap := a.(posit.Posit)
	var bp posit.Posit
	if op != fpmath.OpSqrt {
		bp = b.(posit.Posit)
	}
	switch op {
	case fpmath.OpAdd:
		return posit.Add(ap, bp), 140
	case fpmath.OpSub:
		return posit.Sub(ap, bp), 140
	case fpmath.OpMul:
		return posit.Mul(ap, bp), 160
	case fpmath.OpDiv:
		return posit.Div(ap, bp), 260
	case fpmath.OpSqrt:
		return posit.Sqrt(ap), 320
	case fpmath.OpMin:
		return posit.Min(ap, bp), 40
	case fpmath.OpMax:
		return posit.Max(ap, bp), 40
	}
	return ap, 40
}

func (s *PositSystem) Compare(a, b Value) (fpmath.CompareResult, uint64) {
	return cmpToResult(posit.Cmp(a.(posit.Posit), b.(posit.Posit))), 25
}

func (s *PositSystem) IsNaN(v Value) bool { return v.(posit.Posit).IsNaR() }

func (s *PositSystem) TempsPerOp() int { return 1 }

// ------------------------------------------------------------- interval

// IntervalSystem computes in outward-rounded interval arithmetic.
type IntervalSystem struct{}

// NewInterval returns the interval system.
func NewInterval() *IntervalSystem { return &IntervalSystem{} }

func (*IntervalSystem) Name() string { return "interval" }

func (*IntervalSystem) Promote(f float64) (Value, uint64) {
	return interval.FromFloat64(f), 30
}

func (*IntervalSystem) Demote(v Value) (float64, uint64) {
	return v.(interval.Interval).Mid(), 25
}

func (*IntervalSystem) Op(op fpmath.Op, a, b Value) (Value, uint64) {
	ai := a.(interval.Interval)
	var bi interval.Interval
	if op != fpmath.OpSqrt {
		bi = b.(interval.Interval)
	}
	switch op {
	case fpmath.OpAdd:
		return interval.Add(ai, bi), 70
	case fpmath.OpSub:
		return interval.Sub(ai, bi), 70
	case fpmath.OpMul:
		return interval.Mul(ai, bi), 110
	case fpmath.OpDiv:
		return interval.Div(ai, bi), 150
	case fpmath.OpSqrt:
		return interval.Sqrt(ai), 120
	case fpmath.OpMin:
		return interval.Min(ai, bi), 40
	case fpmath.OpMax:
		return interval.Max(ai, bi), 40
	}
	return ai, 40
}

func (*IntervalSystem) Compare(a, b Value) (fpmath.CompareResult, uint64) {
	return cmpToResult(interval.Cmp(a.(interval.Interval), b.(interval.Interval))), 30
}

func (*IntervalSystem) IsNaN(v Value) bool { return v.(interval.Interval).IsNaN() }

func (*IntervalSystem) TempsPerOp() int { return 0 }

// ------------------------------------------------------------- rational

// RationalSystem computes in exact rational arithmetic.
type RationalSystem struct{}

// NewRational returns the rational system.
func NewRational() *RationalSystem { return &RationalSystem{} }

func (*RationalSystem) Name() string { return "rational" }

func (*RationalSystem) Promote(f float64) (Value, uint64) {
	return rational.FromFloat64(f), 80
}

func (*RationalSystem) Demote(v Value) (float64, uint64) {
	return v.(*rational.Rational).Float64(), 60
}

func (*RationalSystem) Op(op fpmath.Op, a, b Value) (Value, uint64) {
	ar := a.(*rational.Rational)
	var br *rational.Rational
	if op != fpmath.OpSqrt {
		br = b.(*rational.Rational)
	}
	// Cost scales with denominator growth.
	cost := func(out *rational.Rational, base uint64) (Value, uint64) {
		return out, base + uint64(out.DenomBits())/2
	}
	switch op {
	case fpmath.OpAdd:
		return cost(rational.Add(ar, br), 120)
	case fpmath.OpSub:
		return cost(rational.Sub(ar, br), 120)
	case fpmath.OpMul:
		return cost(rational.Mul(ar, br), 150)
	case fpmath.OpDiv:
		return cost(rational.Div(ar, br), 170)
	case fpmath.OpSqrt:
		return cost(rational.Sqrt(ar), 300)
	case fpmath.OpMin:
		if rational.Cmp(ar, br) == -1 {
			return ar, 60
		}
		return br, 60
	case fpmath.OpMax:
		if rational.Cmp(ar, br) == 1 {
			return ar, 60
		}
		return br, 60
	}
	return ar, 40
}

func (*RationalSystem) Compare(a, b Value) (fpmath.CompareResult, uint64) {
	return cmpToResult(rational.Cmp(a.(*rational.Rational), b.(*rational.Rational))), 70
}

func (*RationalSystem) IsNaN(v Value) bool { return v.(*rational.Rational).IsNaN() }

func (*RationalSystem) TempsPerOp() int { return 2 }

// cmpToResult maps a -1/0/1/2 comparison to a CompareResult.
func cmpToResult(c int) fpmath.CompareResult {
	var cr fpmath.CompareResult
	switch c {
	case -1:
		cr.Less = true
	case 0:
		cr.Equal = true
	case 1:
		cr.Greater = true
	default:
		cr.Unordered = true
	}
	return cr
}

// Neg returns -v for posits (exact: two's complement of the encoding).
func (s *PositSystem) Neg(v Value) (Value, uint64) { return v.(posit.Posit).Neg(), 8 }

// Neg returns the negated interval.
func (*IntervalSystem) Neg(v Value) (Value, uint64) {
	iv := v.(interval.Interval)
	return interval.Interval{Lo: -iv.Hi, Hi: -iv.Lo}, 8
}

// Neg returns -v exactly.
func (*RationalSystem) Neg(v Value) (Value, uint64) {
	zero := rational.FromFloat64(0)
	return rational.Sub(zero, v.(*rational.Rational)), 40
}

// Signbit reports a negative posit.
func (s *PositSystem) Signbit(v Value) bool {
	p := v.(posit.Posit)
	return !p.IsNaR() && posit.Cmp(p, posit.Zero(p.N)) < 0
}

// Signbit reports a (midpoint-)negative interval.
func (*IntervalSystem) Signbit(v Value) bool {
	iv := v.(interval.Interval)
	return !iv.IsNaN() && iv.Mid() < 0
}

// Signbit reports a negative rational.
func (*RationalSystem) Signbit(v Value) bool { return v.(*rational.Rational).Sign() < 0 }
