package fpvm

// Trace replay (§4.2 software trace cache, L2). A trap at a known
// sequence start replays the cached pre-decoded sequence straight
// through, running each entry's step (jit.go): no per-instruction
// decode-cache lookups, no re-decode, no re-disassembly for profiling.
// The steps are the ones the per-instruction walk runs, so replay
// re-evaluates each instruction's boxedness against live state and its
// results are identical to the walk's; it only *ends* where the recorded
// trace ends. When a mid-trace instruction's operands stop being boxed
// (the §4.2 divergence case), replay exits to the slow path at that
// instruction and counts a divergence. Faults injected during replay ride
// the same recovery ladder as the walk, and any fault that distrusts an
// instruction kills the traces containing it (see degradeFault).

import (
	"fmt"
	"math"

	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpmath"
	"fpvm/internal/heap"
	"fpvm/internal/kernel"
	"fpvm/internal/telemetry"
)

// replayTrace replays tr against uc, running the step of each of its
// entries in order. It returns true when the trap was fully handled
// (including fatal detach); false when replay declined before emulating
// anything — the caller then falls through to the per-instruction walk
// for this trap.
//
// Each iteration is an indexed entry walk plus one indirect call — no
// cache lookup, no class or operand dispatch. A fault check costs one
// inlined nil test when no injector is armed, and the watchdog budget is
// hoisted (it is a pure config read).
func (r *Runtime) replayTrace(uc *kernel.Ucontext, tr *dcache.Trace, trapStart uint64) bool {
	r.charge(telemetry.Decache, r.Costs.TraceHit)

	count := 0
	reason := tr.Reason
	rip := tr.Start
	budget := r.trapCycleBudget()

	for i, e := range tr.Entries {
		rip = e.Inst.Addr
		r.curRIP = rip

		// The walk checks the decode fault site once per instruction
		// (decodeAt); replay mirrors that with a trust check on the cached
		// entry. A fault here models a corrupted trace/decode entry: the
		// address is invalidated (killing this trace), and the sequence
		// ends so the next trap re-decodes through the walk.
		if r.checkFault(faultinject.SiteDecode, rip) {
			r.cache.Invalidate(rip)
			if !r.retryFault(faultinject.SiteDecode) {
				if i == 0 {
					r.failTrap(uc, rip, faultinject.SiteDecode, fmt.Errorf("decode: %w", errDecodeFault))
					return true
				}
				r.degradeFault(faultinject.SiteDecode)
			}
			if i == 0 {
				return false // nothing emulated yet: re-walk this trap
			}
			reason = dcache.TermUnsupported
			break
		}

		r.charge(telemetry.Decache, r.Costs.TraceInst)
		r.curEntry, r.phase = e, phaseInst
		status, err := r.emulate(uc, e, i == 0)
		r.curEntry, r.phase = nil, phaseNone
		if err != nil {
			if count > 0 {
				// Mid-sequence bind/memory error: degrade by ending the
				// sequence (the hardware re-runs the instruction) and drop
				// the traces through it — its recorded shape is distrusted.
				r.Degradations++
				r.cache.InvalidateTraces(rip)
				reason = dcache.TermUnsupported
				break
			}
			r.failTrap(uc, rip, "", err)
			return true
		}
		if status == emNotWarranted {
			// Boxedness diverged from the recorded shape (a step's guard
			// failed): exit to the slow path at this instruction. The trace
			// stays cached — operands oscillating between boxed and unboxed
			// is normal (§4.2), and the prefix replay was still profitable.
			r.Tel.TraceDivergences++
			reason = dcache.TermNoBoxedSource
			break
		}
		count++
		r.Tel.EmulatedInsts++
		r.Tel.ReplayedInsts++
		rip = e.Inst.Addr + uint64(e.Inst.Len)

		if r.m.Cycles-trapStart > budget {
			r.WatchdogAborts++
			r.Tel.WatchdogAborts++
			if r.tryRollback(uc, tr.Start) {
				return true
			}
			reason = dcache.TermLimit
			break
		}
	}

	if count == 0 {
		// Defensive: cannot happen (the first entry is always warranted and
		// its errors detach above), but never claim an empty trap handled.
		return false
	}

	if count == len(tr.Entries) {
		// Full replay: resume at the end address recorded when the trace
		// was built, keeping EndRIP authoritative over the per-step
		// recomputation (which only early exits need).
		rip = tr.EndRIP
	}
	uc.CPU.RIP = rip

	if r.Profile != nil {
		// Disassembly is captured once at trace build when the builder
		// profiles. A trace built with profiling off (or adopted from a
		// non-profiling VM through the shared cache) carries nil Insts:
		// derive them lazily from the pre-decoded entries, once. This is
		// profiling metadata only, so it charges no virtual cycles. Record
		// ignores the strings for already-known starts.
		tr.EnsureDisassembly(func(rip uint64) (string, bool) {
			in, err := r.m.FetchDecode(rip)
			if err != nil {
				return "", false
			}
			return in.String(), true
		})
		r.Profile.Record(tr.Start, count, reason, tr.Insts, tr.Term)
	}

	r.maybeGC(uc)
	return true
}

// boxKind is what one heap lookup learns about an operand's bits.
type boxKind uint8

const (
	notBox     boxKind = iota // plain bits, or a dead handle: promotes
	floatBox                  // a live box whose value is a float64
	genericBox                // a live box holding another alt value
)

// operand is one operand of a scalar-arithmetic step, looked up once:
// the guard, the choice between the float and the generic path, and the
// resolve all read this result.
type operand struct {
	bits uint64
	val  float64 // the box's value, when kind is floatBox
	kind boxKind
}

// lookupOperand looks bits up in the box heap. It charges nothing: the
// cycles of a resolve are charged by resolveOperand.
func (r *Runtime) lookupOperand(bits uint64) operand {
	o := operand{bits: bits}
	if h, ok := isBox(bits); ok {
		switch f, kind := r.alloc.Lookup(h); kind {
		case heap.Float:
			o.val, o.kind = f, floatBox
		case heap.Generic:
			o.kind = genericBox
		}
	}
	return o
}

// resolveOperand is resolve without interface boxing, on an operand
// that is not a genericBox: a float box yields its value (negated when
// the pattern's sign bit is flipped), anything else promotes. Counters
// and cycle charges mirror resolve exactly.
func (r *Runtime) resolveOperand(o operand) (float64, bool) {
	if o.kind == floatBox {
		if o.bits>>63 != 0 {
			nf, cost := r.flt.NegFloat(o.val)
			r.charge(telemetry.Altmath, cost)
			return nf, true
		}
		return o.val, true
	}
	f, cost := r.flt.PromoteFloat(f64(o.bits))
	r.Promotions++
	r.charge(telemetry.Altmath, cost)
	return f, false
}

// altScalarFloatOp is altScalar on the float fast path, with the fpmath
// op mapped once at decode and both operands looked up by the caller:
// same fault ladder, same NaN-with-unboxed-operands raw-bits rule, same
// costs — but no alt.Value ever exists, so the operation allocates
// nothing.
func (r *Runtime) altScalarFloatOp(fop fpmath.Op, dst, src operand) uint64 {
	for r.checkFault(faultinject.SiteAltOp, r.curRIP) {
		if !r.retryFault(faultinject.SiteAltOp) {
			r.degradeFault(faultinject.SiteAltOp)
			return r.nativeScalarOp(fop, dst.bits, src.bits)
		}
	}
	var a, b float64
	var aBoxed, bBoxed bool
	if fop == fpmath.OpSqrt {
		a, aBoxed = r.resolveOperand(src)
	} else {
		a, aBoxed = r.resolveOperand(dst)
		b, bBoxed = r.resolveOperand(src)
	}
	res, cost := r.flt.OpFloat(fop, a, b)
	r.charge(telemetry.Altmath, cost)
	if math.IsNaN(res) && !aBoxed && !bBoxed {
		// Ordinary operands produced a real NaN: application-visible NaN
		// bits, never one of our boxes (§2.3) — same rule as altScalar.
		return nativeBits(fop, dst.bits, src.bits)
	}
	return r.boxFloat(res)
}

// boxFloat is box for a float64 result: the value lands in a
// float-specialized heap slot with no interface conversion. The sign
// invariant (boxes store magnitudes, the sign lives in bit 63 of the
// pattern) and the fault/degradation ladder match box exactly.
func (r *Runtime) boxFloat(f float64) uint64 {
	for r.checkFault(faultinject.SiteHeapAlloc, r.curRIP) {
		if !r.retryFault(faultinject.SiteHeapAlloc) {
			r.degradeFault(faultinject.SiteHeapAlloc)
			return r.plainBitsFloat(f)
		}
	}
	for i := 0; i < r.Cfg.Alt.TempsPerOp(); i++ {
		r.alloc.Alloc(nil)
	}
	var sign uint64
	if math.Signbit(f) {
		nf, cost := r.flt.NegFloat(f)
		r.charge(telemetry.Altmath, cost)
		f = nf
		sign = 1 << 63
	}
	// boxOrDegrade's MaxLiveBoxes rung, for a float-specialized slot.
	if r.alloc.AtCap() {
		r.forceGC()
	}
	h, err := r.alloc.TryAllocFloat(f)
	if err != nil { // heap.ErrHeapFull even after collecting
		r.HeapFullDegrades++
		r.Degradations++
		return r.plainBitsFloat(f) ^ sign
	}
	r.Boxes++
	return boxBits(h) | sign
}

// plainBitsFloat is plainBits on the float path (degraded storage).
func (r *Runtime) plainBitsFloat(f float64) uint64 {
	df, cost := r.flt.DemoteFloat(f)
	r.charge(telemetry.Altmath, cost)
	return bits64(df)
}
