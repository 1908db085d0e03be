// Package telemetry accumulates FPVM's virtual-cycle cost breakdown using
// the categories of the paper's Figures 1, 6 and 13: hw, kernel, decache,
// decode, bind, emul, altmath, gc, fcall, corr and ret, amortized per
// emulated instruction.
package telemetry

import (
	"fmt"
	"math/bits"
	"strings"
)

// Category is a cost bucket.
type Category int

const (
	HW      Category = iota // hardware -> kernel exception dispatch
	Kernel                  // kernel -> user delivery (signal or short-circuit)
	Decache                 // decode cache lookups
	Decode                  // full decodes (cache misses)
	Bind                    // operand binding
	Emul                    // emulation dispatch outside the alt system
	Altmath                 // alternative arithmetic (incl. promote/demote)
	GC                      // garbage collection
	FCall                   // foreign function correctness (wrappers)
	Corr                    // memory-escape correctness traps
	Ret                     // return to the faulting context (sigreturn/unwind)

	NumCategories
)

var names = [NumCategories]string{
	"hw", "kernel", "decache", "decode", "bind", "emul", "altmath", "gc", "fcall", "corr", "ret",
}

// Name returns the category's short name as used in the paper's legends.
func (c Category) String() string {
	if c >= 0 && c < NumCategories {
		return names[c]
	}
	return "cat?"
}

// Categories lists all categories in legend order.
func Categories() []Category {
	out := make([]Category, NumCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}

// Cause indexes TrapCauses by MXCSR exception bit position. The order
// matches both the hardware status word and fpmath's Ex* flag bits, so
// cause i corresponds to flag bit 1<<i.
const (
	CauseInvalid = iota
	CauseDenormal
	CauseDivZero
	CauseOverflow
	CauseUnderflow
	CausePrecision

	NumCauses
)

var causeNames = [NumCauses]string{
	"invalid", "denormal", "divzero", "overflow", "underflow", "precision",
}

// CauseName returns the short name of trap cause i.
func CauseName(i int) string {
	if i >= 0 && i < NumCauses {
		return causeNames[i]
	}
	return "cause?"
}

// Breakdown is a per-run cost accumulation.
type Breakdown struct {
	Cycles [NumCategories]uint64

	// EmulatedInsts counts instructions emulated by FPVM (the
	// amortization denominator).
	EmulatedInsts uint64

	// Traps counts FP trap deliveries.
	Traps uint64

	// TrapCauses counts trap deliveries by raised MXCSR exception cause,
	// indexed by bit position (CauseInvalid..CausePrecision). One trap can
	// raise several causes, so the per-cause sum can exceed Traps. Traps
	// delivered without cause flags (correctness traps, foreign calls)
	// count under none of them.
	TrapCauses [NumCauses]uint64

	// CorrEvents / FCallEvents count correctness invocations.
	CorrEvents  uint64
	FCallEvents uint64

	// Fault-tolerance counters (the recovery ladder). Every injected
	// fault observed by the runtime is resolved by exactly one rung, so
	// FaultsInjected == FaultsRetried + FaultsRolledBack + FaultsDegraded
	// + FaultsFatal.
	FaultsInjected   uint64 // injected faults observed by the runtime
	FaultsRetried    uint64 // resolved by a bounded retry
	FaultsRolledBack uint64 // resolved by checkpoint rollback + re-execution
	FaultsDegraded   uint64 // resolved by demotion to native IEEE (or safe skip)
	FaultsFatal      uint64 // resolved by clean detach (guest continues native)

	// BackoffCycles is the virtual-cycle delay charged by the retry
	// rung's jittered exponential backoff (Config.RetryBackoffCycles > 0):
	// the k-th retry of a site within one trap waits ~base·2^k cycles
	// ±25% deterministic jitter before re-attempting, so co-scheduled
	// retry storms spread out instead of hammering in lockstep. Zero when
	// backoff is disabled (the default).
	BackoffCycles uint64

	// Checkpoint/rollback supervisor activity. Checkpoints counts
	// snapshots captured, Rollbacks successful restores (the run rewound
	// and re-executed), RollbackFailures attempts that could not restore
	// (no snapshot, attempts exhausted, or the restore itself faulted
	// beyond its budget) and escalated down the ladder, and Quarantines
	// distinct RIPs pinned to native execution after a rollback.
	Checkpoints      uint64
	Rollbacks        uint64
	RollbackFailures uint64
	Quarantines      uint64

	// WatchdogAborts counts sequence emulations cut short by the
	// per-trap virtual-cycle watchdog.
	WatchdogAborts uint64

	// PanicRecoveries counts emulator panics converted to degradations.
	PanicRecoveries uint64

	// AbortedTraps counts traps delivered after the runtime detached;
	// they are observed (not silently swallowed) but no longer emulated.
	AbortedTraps uint64

	// Trace cache activity (§4.2 software trace cache). TraceHits counts
	// traps served by replaying a cached pre-bound sequence, TraceMisses
	// traps that walked per-instruction (and typically built a trace),
	// TraceDivergences replays that exited early because an instruction's
	// boxedness diverged from the recorded shape, and ReplayedInsts the
	// emulated instructions executed via replay (a subset of
	// EmulatedInsts).
	TraceHits        uint64
	TraceMisses      uint64
	TraceDivergences uint64
	ReplayedInsts    uint64
}

// TraceHitRate returns the fraction of sequence traps served from the L2
// trace table (0 when the trace cache never engaged).
func (b *Breakdown) TraceHitRate() float64 {
	t := b.TraceHits + b.TraceMisses
	if t == 0 {
		return 0
	}
	return float64(b.TraceHits) / float64(t)
}

// DivergenceRate returns the fraction of trace replays that exited early on
// a boxedness divergence.
func (b *Breakdown) DivergenceRate() float64 {
	if b.TraceHits == 0 {
		return 0
	}
	return float64(b.TraceDivergences) / float64(b.TraceHits)
}

// FaultsReconciled reports whether every injected fault the runtime
// observed was resolved by exactly one ladder rung.
func (b *Breakdown) FaultsReconciled() bool {
	return b.FaultsInjected == b.FaultsRetried+b.FaultsRolledBack+b.FaultsDegraded+b.FaultsFatal
}

// FaultLine renders the fault-tolerance counters as a one-line summary,
// or "" when the trap pipeline saw no faults at all.
func (b *Breakdown) FaultLine() string {
	if b.FaultsInjected == 0 && b.WatchdogAborts == 0 && b.PanicRecoveries == 0 && b.AbortedTraps == 0 && b.Rollbacks == 0 {
		return ""
	}
	line := fmt.Sprintf(
		"faults: injected %d, retried %d, rolledback %d, degraded %d, fatal %d; watchdog aborts %d, panic recoveries %d, aborted traps %d",
		b.FaultsInjected, b.FaultsRetried, b.FaultsRolledBack, b.FaultsDegraded, b.FaultsFatal,
		b.WatchdogAborts, b.PanicRecoveries, b.AbortedTraps)
	if b.Checkpoints != 0 || b.Rollbacks != 0 || b.RollbackFailures != 0 || b.Quarantines != 0 {
		line += fmt.Sprintf("; checkpoints %d, rollbacks %d (failed %d), quarantined rips %d",
			b.Checkpoints, b.Rollbacks, b.RollbackFailures, b.Quarantines)
	}
	return line
}

// NoteTrapCauses records one trap delivery whose raised exception flags
// are the MXCSR bits in flags (fpmath.Ex* layout).
func (b *Breakdown) NoteTrapCauses(flags uint32) {
	for f := flags & (1<<NumCauses - 1); f != 0; f &= f - 1 {
		b.TrapCauses[bits.TrailingZeros32(f)]++
	}
}

// CauseLine renders the per-cause trap counts as a one-line summary, or
// "" when no trap carried cause flags.
func (b *Breakdown) CauseLine() string {
	var parts []string
	for i := 0; i < NumCauses; i++ {
		if b.TrapCauses[i] != 0 {
			parts = append(parts, fmt.Sprintf("%s %d", causeNames[i], b.TrapCauses[i]))
		}
	}
	if len(parts) == 0 {
		return ""
	}
	return "trap causes: " + strings.Join(parts, ", ")
}

// Add charges n cycles to category c.
func (b *Breakdown) Add(c Category, n uint64) { b.Cycles[c] += n }

// Merge accumulates o into b: every cycle category and every counter.
// The fleet runner uses it to fold per-worker breakdowns into one
// fleet-level report; rates (TraceHitRate, AvgSeqLen, PerInst) computed on
// the merged breakdown are then workload-weighted fleet aggregates.
func (b *Breakdown) Merge(o *Breakdown) {
	if o == nil {
		return
	}
	for i := range b.Cycles {
		b.Cycles[i] += o.Cycles[i]
	}
	b.EmulatedInsts += o.EmulatedInsts
	b.Traps += o.Traps
	for i := range b.TrapCauses {
		b.TrapCauses[i] += o.TrapCauses[i]
	}
	b.CorrEvents += o.CorrEvents
	b.FCallEvents += o.FCallEvents
	b.FaultsInjected += o.FaultsInjected
	b.FaultsRetried += o.FaultsRetried
	b.FaultsRolledBack += o.FaultsRolledBack
	b.FaultsDegraded += o.FaultsDegraded
	b.FaultsFatal += o.FaultsFatal
	b.BackoffCycles += o.BackoffCycles
	b.Checkpoints += o.Checkpoints
	b.Rollbacks += o.Rollbacks
	b.RollbackFailures += o.RollbackFailures
	b.Quarantines += o.Quarantines
	b.WatchdogAborts += o.WatchdogAborts
	b.PanicRecoveries += o.PanicRecoveries
	b.AbortedTraps += o.AbortedTraps
	b.TraceHits += o.TraceHits
	b.TraceMisses += o.TraceMisses
	b.TraceDivergences += o.TraceDivergences
	b.ReplayedInsts += o.ReplayedInsts
}

// Total returns the summed FPVM overhead cycles.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, c := range b.Cycles {
		t += c
	}
	return t
}

// OverheadTotal returns total cycles excluding altmath — the virtualization
// overhead the paper's techniques attack.
func (b *Breakdown) OverheadTotal() uint64 { return b.Total() - b.Cycles[Altmath] }

// PerInst returns each category amortized per emulated instruction
// (Figure 1/6/13 bars).
func (b *Breakdown) PerInst() [NumCategories]float64 {
	var out [NumCategories]float64
	if b.EmulatedInsts == 0 {
		return out
	}
	for i, c := range b.Cycles {
		out[i] = float64(c) / float64(b.EmulatedInsts)
	}
	return out
}

// AvgSeqLen returns emulated instructions per trap.
func (b *Breakdown) AvgSeqLen() float64 {
	if b.Traps == 0 {
		return 0
	}
	return float64(b.EmulatedInsts) / float64(b.Traps)
}

// Row renders the amortized breakdown as a fixed-width table row.
func (b *Breakdown) Row(label string) string {
	per := b.PerInst()
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s", label)
	for i := Category(0); i < NumCategories; i++ {
		fmt.Fprintf(&sb, " %9.1f", per[i])
	}
	fmt.Fprintf(&sb, " %10.1f", b.perInstTotal())
	return sb.String()
}

func (b *Breakdown) perInstTotal() float64 {
	if b.EmulatedInsts == 0 {
		return 0
	}
	return float64(b.Total()) / float64(b.EmulatedInsts)
}

// Header renders the table header matching Row.
func Header() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s", "config")
	for i := Category(0); i < NumCategories; i++ {
		fmt.Fprintf(&sb, " %9s", Category(i))
	}
	fmt.Fprintf(&sb, " %10s", "total")
	return sb.String()
}
