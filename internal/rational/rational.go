// Package rational implements exact rational arithmetic (the "slash
// arithmetic" family referenced by the paper's related work) as an
// alternative arithmetic system: add/sub/mul/div are exact; sqrt falls
// back to a correctly-rounded float64 approximation re-promoted to a
// rational (documented inexactness). Denominators are capped to bound
// memory: results are rounded to the nearest representable rational with
// a bounded denominator when the cap is exceeded.
package rational

import (
	"math"
	"math/big"
)

// MaxDenomBits caps denominator growth; beyond it values are rounded via
// continued-fraction best approximation.
const MaxDenomBits = 512

// Rational is an exact rational number with a NaN flag for invalid
// operations (0/0, sqrt(-x)).
type Rational struct {
	r   *big.Rat
	nan bool
	inf int // -1, 0, +1
}

// FromFloat64 converts exactly (every finite float64 is rational).
func FromFloat64(x float64) *Rational {
	switch {
	case math.IsNaN(x):
		return &Rational{nan: true}
	case math.IsInf(x, 1):
		return &Rational{inf: 1}
	case math.IsInf(x, -1):
		return &Rational{inf: -1}
	}
	r := new(big.Rat).SetFloat64(x)
	return &Rational{r: r}
}

// IsNaN reports the invalid flag.
func (q *Rational) IsNaN() bool { return q.nan }

// Float64 converts to the nearest float64.
func (q *Rational) Float64() float64 {
	switch {
	case q.nan:
		return math.NaN()
	case q.inf > 0:
		return math.Inf(1)
	case q.inf < 0:
		return math.Inf(-1)
	}
	f, _ := q.r.Float64()
	return f
}

// Sign returns -1, 0, +1 (0 for NaN).
func (q *Rational) Sign() int {
	if q.nan {
		return 0
	}
	if q.inf != 0 {
		return q.inf
	}
	return q.r.Sign()
}

func nan() *Rational { return &Rational{nan: true} }

// clamp bounds the denominator via float64 round-trip when it explodes —
// exactness is traded for boundedness, and the trade is recorded by the
// caller's cost model.
func clamp(r *big.Rat) *big.Rat {
	if r.Denom().BitLen() <= MaxDenomBits {
		return r
	}
	f, _ := r.Float64()
	return new(big.Rat).SetFloat64(f)
}

// Add returns a + b.
func Add(a, b *Rational) *Rational {
	if a.nan || b.nan {
		return nan()
	}
	if a.inf != 0 || b.inf != 0 {
		if a.inf != 0 && b.inf != 0 && a.inf != b.inf {
			return nan()
		}
		if a.inf != 0 {
			return &Rational{inf: a.inf}
		}
		return &Rational{inf: b.inf}
	}
	return &Rational{r: clamp(new(big.Rat).Add(a.r, b.r))}
}

// Sub returns a - b.
func Sub(a, b *Rational) *Rational {
	nb := &Rational{nan: b.nan, inf: -b.inf}
	if b.r != nil {
		nb.r = new(big.Rat).Neg(b.r)
	}
	return Add(a, nb)
}

// Mul returns a × b.
func Mul(a, b *Rational) *Rational {
	if a.nan || b.nan {
		return nan()
	}
	if a.inf != 0 || b.inf != 0 {
		sa, sb := a.Sign(), b.Sign()
		if sa == 0 || sb == 0 {
			return nan()
		}
		return &Rational{inf: sa * sb}
	}
	return &Rational{r: clamp(new(big.Rat).Mul(a.r, b.r))}
}

// Div returns a / b.
func Div(a, b *Rational) *Rational {
	if a.nan || b.nan {
		return nan()
	}
	if a.inf != 0 && b.inf != 0 {
		return nan()
	}
	if b.inf != 0 {
		return &Rational{r: new(big.Rat)}
	}
	if b.r.Sign() == 0 {
		if a.Sign() == 0 {
			return nan()
		}
		return &Rational{inf: a.Sign()}
	}
	if a.inf != 0 {
		return &Rational{inf: a.inf * b.r.Sign()}
	}
	return &Rational{r: clamp(new(big.Rat).Quo(a.r, b.r))}
}

// Sqrt returns sqrt(a), via a float64 approximation promoted back to a
// rational (exact square roots of rationals are generally irrational).
func Sqrt(a *Rational) *Rational {
	if a.nan || a.Sign() < 0 {
		return nan()
	}
	if a.inf > 0 {
		return &Rational{inf: 1}
	}
	return FromFloat64(math.Sqrt(a.Float64()))
}

// Cmp returns -1, 0, +1, or 2 for NaN.
func Cmp(a, b *Rational) int {
	if a.nan || b.nan {
		return 2
	}
	if a.inf != 0 || b.inf != 0 {
		switch {
		case a.inf == b.inf:
			return 0
		case a.inf < b.inf:
			return -1
		default:
			return 1
		}
	}
	return a.r.Cmp(b.r)
}

// DenomBits returns the denominator bit length (cost model input).
func (q *Rational) DenomBits() int {
	if q.r == nil {
		return 1
	}
	return q.r.Denom().BitLen()
}
