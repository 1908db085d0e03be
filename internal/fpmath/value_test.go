package fpmath_test

import (
	"math"
	"math/rand"
	"testing"

	"fpvm/internal/fpfuzz"
	"fpvm/internal/fpmath"
)

// specialGrid is every operand class EvalValue must agree with Eval on:
// signed zeros, the denormal range, the normal extremes, infinities, and
// quiet and signaling NaNs of both signs with empty, low and full
// payloads (the canonical NaN among them).
var specialGrid = []uint64{
	0, 1 << 63, // ±0
	1, 1<<63 | 1, // ±smallest denormal
	fpmath.FracMask, 1<<63 | fpmath.FracMask, // ±largest denormal
	0x0010_0000_0000_0000, 0x8010_0000_0000_0000, // ±smallest normal
	0x7FEF_FFFF_FFFF_FFFF, 0xFFEF_FFFF_FFFF_FFFF, // ±largest finite
	math.Float64bits(1), math.Float64bits(-1), math.Float64bits(3),
	math.Float64bits(1.0 / 3.0), math.Float64bits(0x1p-1022 * 0x1p-30),
	math.Float64bits(0x1p-537), math.Float64bits(0x1p512), math.Float64bits(2),
	fpmath.ExpMask, 1<<63 | fpmath.ExpMask, // ±Inf
	fpmath.ExpMask | fpmath.QuietBit, fpmath.CanonicalNaN, // qNaN, empty payload
	fpmath.ExpMask | fpmath.QuietBit | 0xDEAD_BEEF, // qNaN with a payload
	1<<63 | fpmath.ExpMask | fpmath.FracMask,       // -qNaN, full payload
	fpmath.ExpMask | 1, 1<<63 | fpmath.ExpMask | 1, // ±sNaN, low payload
	fpmath.ExpMask | (fpmath.QuietBit - 1), // sNaN, full payload
	fpmath.ExpMask | 1<<50 | 7,             // a NaN-box-shaped sNaN
}

var allOps = []fpmath.Op{fpmath.OpAdd, fpmath.OpSub, fpmath.OpMul, fpmath.OpDiv,
	fpmath.OpSqrt, fpmath.OpMin, fpmath.OpMax}

func checkValue(t *testing.T, op fpmath.Op, a, b uint64) {
	t.Helper()
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	want := math.Float64bits(fpmath.Eval(op, fa, fb).Value)
	if got := math.Float64bits(fpmath.EvalValue(op, fa, fb)); got != want {
		t.Errorf("%v(%#016x, %#016x): EvalValue %#016x, Eval %#016x", op, a, b, got, want)
	}
}

// TestEvalValueMatchesEval: EvalValue returns Eval's value bit for bit
// over every pair of the special-value grid, every pair of the fpfuzz
// operand pool (the constants its corpus programs seed registers with),
// and random bit patterns.
func TestEvalValueMatchesEval(t *testing.T) {
	operands := append([]uint64(nil), specialGrid...)
	for _, c := range fpfuzz.Pool {
		operands = append(operands, c.Bits)
	}
	for _, op := range allOps {
		for _, a := range operands {
			for _, b := range operands {
				checkValue(t, op, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(0x7A1E))
	for i := 0; i < 200_000; i++ {
		checkValue(t, allOps[i%len(allOps)], rng.Uint64(), rng.Uint64())
	}
}
