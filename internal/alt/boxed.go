package alt

import (
	"math"

	"fpvm/internal/fpmath"
)

// BoxedIEEE is the paper's "worst case" alternative arithmetic system: it
// performs arithmetic with ordinary hardware doubles but stores each value
// in a heap box referenced through a NaN-boxed pointer. Because the math
// itself is nearly free, virtualization overheads dominate — which is
// exactly why the paper evaluates with it. Results are bit-for-bit equal
// to native IEEE execution.
type BoxedIEEE struct{}

// Boxed IEEE cycle costs: a fast heap op plus a few ALU ops.
// Calibrated to the paper's testbed: each Boxed IEEE operation pays for
// heap allocation of the result box, NaN-box encode, and pointer chasing
// through (cold) boxes — the paper's Figure 5 lower-bound data implies
// roughly 400-500 cycles per operation on their machine.
const (
	boxedPromoteCost = 80
	boxedDemoteCost  = 50
	boxedOpCost      = 450
	boxedCmpCost     = 150
)

// NewBoxedIEEE returns the Boxed IEEE system.
func NewBoxedIEEE() *BoxedIEEE { return &BoxedIEEE{} }

func (*BoxedIEEE) Name() string { return "boxed" }

func (*BoxedIEEE) Promote(f float64) (Value, uint64) { return f, boxedPromoteCost }

func (*BoxedIEEE) Demote(v Value) (float64, uint64) { return v.(float64), boxedDemoteCost }

func (*BoxedIEEE) Op(op fpmath.Op, a, b Value) (Value, uint64) {
	af := a.(float64)
	var bf float64
	if op != fpmath.OpSqrt {
		bf = b.(float64)
	}
	// Masked-arithmetic semantics: compute the IEEE result ignoring the
	// exception flags (the alternative system owns rounding now).
	return fpmath.EvalValue(op, af, bf), boxedOpCostOf(op)
}

// boxedOpCostOf is the virtual-cycle cost of one Boxed IEEE operation.
func boxedOpCostOf(op fpmath.Op) uint64 {
	cost := uint64(boxedOpCost)
	if op == fpmath.OpDiv {
		cost += 8
	}
	if op == fpmath.OpSqrt {
		cost += 12
	}
	return cost
}

func (*BoxedIEEE) Compare(a, b Value) (fpmath.CompareResult, uint64) {
	return fpmath.Compare(a.(float64), b.(float64), false), boxedCmpCost
}

func (*BoxedIEEE) IsNaN(v Value) bool { return math.IsNaN(v.(float64)) }

func (*BoxedIEEE) TempsPerOp() int { return 0 }

func (*BoxedIEEE) Neg(v Value) (Value, uint64) { return -v.(float64), 4 }

func (*BoxedIEEE) Signbit(v Value) bool { return math.Signbit(v.(float64)) }

// FloatSystem implementation: Boxed IEEE's representation is a float64, so
// the allocation-free variants are the generic methods minus the interface
// conversions. Costs match the generic methods exactly.

func (*BoxedIEEE) PromoteFloat(f float64) (float64, uint64) { return f, boxedPromoteCost }

func (*BoxedIEEE) DemoteFloat(f float64) (float64, uint64) { return f, boxedDemoteCost }

func (*BoxedIEEE) OpFloat(op fpmath.Op, a, b float64) (float64, uint64) {
	return fpmath.EvalValue(op, a, b), boxedOpCostOf(op)
}

func (*BoxedIEEE) CompareFloat(a, b float64) (fpmath.CompareResult, uint64) {
	return fpmath.Compare(a, b, false), boxedCmpCost
}

func (*BoxedIEEE) NegFloat(f float64) (float64, uint64) { return -f, 4 }
