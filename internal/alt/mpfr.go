package alt

import (
	"fpvm/internal/bigfp"
	"fpvm/internal/fpmath"
)

// MPFR is the arbitrary-precision alternative arithmetic system standing
// in for GNU MPFR, built on the from-scratch internal/bigfp library with
// correct rounding. The paper evaluates FPVM with MPFR at 200 bits
// (§6.4); that is the default here too.
//
// Per-operation cycle costs are charged from the actual limb work
// (schoolbook mul/div are quadratic in limbs), so higher precisions are
// proportionally more expensive, and MPFR allocates more temporaries than
// Boxed IEEE — which the paper observes as extra gc pressure.
type MPFR struct {
	prec  uint
	temps int
}

// NewMPFR returns the MPFR-like system at the given precision in bits
// (0 = 200).
func NewMPFR(prec uint) *MPFR {
	if prec == 0 {
		prec = 200
	}
	return &MPFR{prec: prec, temps: 2}
}

// WithTemps overrides the per-op temporary allocation count — §6.4 notes
// MPFR's extra temporaries as "an easy point of optimization in future
// work"; setting 0 models that optimization for the ablation bench.
func (m *MPFR) WithTemps(n int) *MPFR {
	m.temps = n
	return m
}

func (m *MPFR) Name() string { return "mpfr" }

// Prec returns the configured precision.
func (m *MPFR) Prec() uint { return m.prec }

func (m *MPFR) limbs() uint64 { return uint64((m.prec + 63) / 64) }

func (m *MPFR) Promote(f float64) (Value, uint64) {
	v := bigfp.New(m.prec).SetFloat64(f)
	return v, 150 + 15*m.limbs()
}

func (m *MPFR) Demote(v Value) (float64, uint64) {
	return v.(*bigfp.Float).Float64(), 90 + 10*m.limbs()
}

func (m *MPFR) Op(op fpmath.Op, a, b Value) (Value, uint64) {
	af := a.(*bigfp.Float)
	out := bigfp.New(m.prec)
	n := m.limbs()
	switch op {
	case fpmath.OpSqrt:
		out.Sqrt(af)
		return out, 900 + 110*n*n
	case fpmath.OpAdd:
		out.Add(af, b.(*bigfp.Float))
		return out, 500 + 30*n
	case fpmath.OpSub:
		out.Sub(af, b.(*bigfp.Float))
		return out, 500 + 30*n
	case fpmath.OpMul:
		out.Mul(af, b.(*bigfp.Float))
		return out, 600 + 60*n*n
	case fpmath.OpDiv:
		out.Div(af, b.(*bigfp.Float))
		return out, 700 + 90*n*n
	case fpmath.OpMin:
		out.Min(af, b.(*bigfp.Float))
		return out, 40 + 6*n
	case fpmath.OpMax:
		out.Max(af, b.(*bigfp.Float))
		return out, 160 + 8*n
	}
	out.SetFloat64(0)
	return out, 40
}

func (m *MPFR) Compare(a, b Value) (fpmath.CompareResult, uint64) {
	var cr fpmath.CompareResult
	switch a.(*bigfp.Float).Cmp(b.(*bigfp.Float)) {
	case -1:
		cr.Less = true
	case 0:
		cr.Equal = true
	case 1:
		cr.Greater = true
	default:
		cr.Unordered = true
	}
	return cr, 180 + 8*m.limbs()
}

func (m *MPFR) IsNaN(v Value) bool { return v.(*bigfp.Float).IsNaN() }

// TempsPerOp: MPFR-style operations allocate intermediate objects
// (§6.4: "MPFR allocating more temporary objects than Boxed").
func (m *MPFR) TempsPerOp() int { return m.temps }

func (m *MPFR) Neg(v Value) (Value, uint64) {
	return v.(*bigfp.Float).Clone().Neg(), 20 + 4*m.limbs()
}

func (m *MPFR) Signbit(v Value) bool { return v.(*bigfp.Float).Signbit() }

// libm cost model: a 200-bit transcendental runs dozens of limb
// multiplications (series terms); quadratic in limbs like mul.
func (m *MPFR) libmCost() uint64 {
	n := m.limbs()
	return 3500 + 550*n*n
}

// LibmUnary evaluates one-argument libm functions at full precision using
// the from-scratch bigfp transcendentals.
func (m *MPFR) LibmUnary(fn string, a Value) (Value, uint64, bool) {
	x, isBig := a.(*bigfp.Float)
	if !isBig {
		return nil, 0, false
	}
	out := bigfp.New(m.prec)
	switch fn {
	case "sin":
		out.Sin(x)
	case "cos":
		out.Cos(x)
	case "tan":
		out.Tan(x)
	case "asin":
		out.Asin(x)
	case "acos":
		out.Acos(x)
	case "atan":
		out.Atan(x)
	case "exp":
		out.Exp(x)
	case "log":
		out.Log(x)
	case "log10":
		out.Log(x)
		ln10 := bigfp.New(m.prec + 16).Log(bigfp.New(m.prec + 16).SetInt64(10))
		out.Div(out, ln10)
	case "sqrt":
		out.Sqrt(x)
	case "fabs":
		out.Abs(x)
	default:
		return nil, 0, false
	}
	return out, m.libmCost(), true
}

// LibmBinary evaluates two-argument libm functions at full precision.
func (m *MPFR) LibmBinary(fn string, a, b Value) (Value, uint64, bool) {
	x, okA := a.(*bigfp.Float)
	y, okB := b.(*bigfp.Float)
	if !okA || !okB {
		return nil, 0, false
	}
	out := bigfp.New(m.prec)
	switch fn {
	case "atan2":
		out.Atan2(x, y)
	case "pow":
		out.PowFloat(x, y)
	case "hypot":
		wp := bigfp.New(m.prec + 16)
		wp.Add(bigfp.New(m.prec+16).Mul(x, x), bigfp.New(m.prec+16).Mul(y, y))
		out.Sqrt(wp)
	default:
		return nil, 0, false
	}
	return out, m.libmCost() + m.libmCost()/2, true
}
