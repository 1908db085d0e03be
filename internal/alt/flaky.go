package alt

import "fpvm/internal/fpmath"

// Flaky wraps an alternative arithmetic system and makes its Op panic on
// a fixed schedule — a stand-in for an emulator or alt-system bug (a nil
// dereference deep in MPFR, say). The FPVM runtime's trap-handler panic
// recovery must convert each panic into a degradation event (the
// instruction re-runs as native IEEE) instead of crashing the process;
// the fault-tolerance tests use Flaky to prove that.
//
// Flaky deliberately implements only System, not MathSystem: a flaky
// system should never be consulted for full-precision libm routing.
type Flaky struct {
	Sys System

	// PanicEveryN makes every Nth Op call panic (0 disables).
	PanicEveryN uint64

	ops    uint64
	Panics uint64 // panics raised so far
}

// NewFlaky wraps sys so every nth Op panics.
func NewFlaky(sys System, everyN uint64) *Flaky {
	return &Flaky{Sys: sys, PanicEveryN: everyN}
}

func (f *Flaky) Name() string { return f.Sys.Name() + "+flaky" }

func (f *Flaky) Promote(x float64) (Value, uint64) { return f.Sys.Promote(x) }

func (f *Flaky) Demote(v Value) (float64, uint64) { return f.Sys.Demote(v) }

func (f *Flaky) Op(op fpmath.Op, a, b Value) (Value, uint64) {
	f.ops++
	if f.PanicEveryN != 0 && f.ops%f.PanicEveryN == 0 {
		f.Panics++
		panic("alt: injected emulator bug (Flaky)")
	}
	return f.Sys.Op(op, a, b)
}

func (f *Flaky) Compare(a, b Value) (fpmath.CompareResult, uint64) { return f.Sys.Compare(a, b) }

func (f *Flaky) Neg(v Value) (Value, uint64) { return f.Sys.Neg(v) }

func (f *Flaky) Signbit(v Value) bool { return f.Sys.Signbit(v) }

func (f *Flaky) IsNaN(v Value) bool { return f.Sys.IsNaN(v) }

func (f *Flaky) TempsPerOp() int { return f.Sys.TempsPerOp() }
