// Package alt defines the alternative arithmetic system interface of FPVM
// (§2.1: "FPVM has a well-defined interface to the alternative arithmetic
// system, which allows different choices to be compiled in") and provides
// the systems used in the paper's evaluation — Boxed IEEE (the worst case
// for virtualization overhead) and an MPFR-like arbitrary precision system
// — plus posit, interval and rational systems as extensions.
package alt

import "fpvm/internal/fpmath"

// Value is an opaque alternative-arithmetic value stored in FPVM's boxes.
// Each System documents its concrete type.
type Value any

// System is the alternative arithmetic system plugged into FPVM. All
// operations return the virtual cycle cost of the work performed, which
// the runtime accounts to the paper's "altmath" category.
type System interface {
	// Name identifies the system ("boxed", "mpfr", ...).
	Name() string

	// Promote converts an IEEE double into the system's representation
	// (§2.2: producing a NaN-box-encoded value is a promotion).
	Promote(f float64) (Value, uint64)

	// Demote converts a value back to an IEEE double, losing whatever
	// precision the system carries beyond binary64.
	Demote(v Value) (float64, uint64)

	// Op applies a binary arithmetic operation (b is ignored for OpSqrt).
	Op(op fpmath.Op, a, b Value) (Value, uint64)

	// Compare orders two values (ucomisd/cmpxx emulation).
	Compare(a, b Value) (fpmath.CompareResult, uint64)

	// Neg returns -v. Needed because compiled code negates doubles by
	// flipping the IEEE sign bit (xorpd) — the sign bit lies outside the
	// NaN-box pattern, so FPVM decodes a sign-flipped box as the negated
	// value.
	Neg(v Value) (Value, uint64)

	// Signbit reports whether v is negative. FPVM stores magnitudes in
	// its boxes and mirrors the sign into the NaN-box bit pattern's sign
	// bit, so that the compiler's andpd/xorpd sign idioms (abs, negate)
	// work on boxed values exactly as they do on plain doubles.
	Signbit(v Value) bool

	// IsNaN reports whether v represents a NaN in the system.
	IsNaN(v Value) bool

	// TempsPerOp is the number of short-lived boxes an emulated operation
	// allocates beyond its result. MPFR allocates more temporaries than
	// Boxed IEEE, which the paper observes as higher gc overhead (§6.4).
	TempsPerOp() int
}

// FloatSystem is an optional extension: systems whose Value representation
// is (or round-trips losslessly through) a hardware float64 can expose
// allocation-free variants of the core operations. The runtime's trace
// replay path uses them to emulate whole pre-bound sequences without
// boxing a single interface value — the generic System methods convert
// float64 results to Value (an `any`), which heap-allocates on every call
// and dominates the trap path's allocation profile. Costs returned must be
// identical to the corresponding System methods so virtual-cycle accounting
// (and therefore determinism) is unchanged between the walk and replay
// paths.
type FloatSystem interface {
	// PromoteFloat is Promote for a system whose representation is float64.
	PromoteFloat(f float64) (float64, uint64)

	// DemoteFloat is Demote without the interface unbox.
	DemoteFloat(f float64) (float64, uint64)

	// OpFloat is Op on unboxed operands (b ignored for OpSqrt).
	OpFloat(op fpmath.Op, a, b float64) (float64, uint64)

	// CompareFloat is Compare on unboxed operands.
	CompareFloat(a, b float64) (fpmath.CompareResult, uint64)

	// NegFloat is Neg on an unboxed operand.
	NegFloat(f float64) (float64, uint64)
}

// Codec is an optional extension: systems whose values can round-trip
// through a byte encoding. Every image of the VM holds the NaN-box heap
// through it: the checkpoint wire format, which makes snapshots durable
// across process death, and the rollback supervisor's in-memory
// checkpoint, whose decoded values share nothing with the live ones (so
// a later in-place mutation of either cannot reach the other). The
// runtime refuses rollback for a system without one. Encode/decode must
// be exact: a decoded value must be bit-identical in behaviour
// (arithmetic, comparison, demotion) to the original, or a resumed or
// rolled-back run diverges from its uninterrupted twin.
type Codec interface {
	// EncodeValue serializes v. The encoding needs no framing of its own;
	// the wire format length-prefixes it.
	EncodeValue(v Value) ([]byte, error)

	// DecodeValue reconstructs a value from an EncodeValue payload,
	// consuming all of b.
	DecodeValue(b []byte) (Value, error)
}

// MathSystem is an optional extension: systems that can evaluate libm
// functions natively in their own representation. FPVM's libm forward
// wrappers (§5.3) consult it — when present, sin/cos/pow/... are computed
// at the system's full precision instead of demoting to hardware doubles
// and calling the host libm.
type MathSystem interface {
	// LibmUnary evaluates fn(a) for one-argument libm functions
	// ("sin", "cos", "tan", "asin", "acos", "atan", "exp", "log",
	// "log10", "fabs", "sqrt", ...). ok is false if fn is unsupported,
	// in which case the wrapper falls back to demote-and-call-libm.
	LibmUnary(fn string, a Value) (Value, uint64, bool)

	// LibmBinary evaluates fn(a, b) ("atan2", "pow", "hypot", ...).
	LibmBinary(fn string, a, b Value) (Value, uint64, bool)
}
