package fpvm

import (
	"fmt"

	"fpvm/internal/faultinject"
	"fpvm/internal/kernel"
	"fpvm/internal/telemetry"
)

// The rollback supervisor (this file) inserts a rung between retry and
// degrade in the recovery ladder when Config.CheckpointInterval > 0:
//
//	retry    → bounded per-site, per-trap retries (recovery.go)
//	rollback → restore the last crash-consistent snapshot, quarantine the
//	           distrusted RIP to native execution, and re-execute
//	degrade  → demote to native IEEE for the affected operation
//	detach   → the "do no harm" bottom rung
//
// Snapshots are captured at trap boundaries (maybeCheckpoint), where the
// register file is untouched by emulation and RIP still points at the
// faulting instruction — restoring one simply makes the guest re-trap
// there. A snapshot is the guest-visible part of the suspend image
// (captureState in suspend.go), kept in memory and never encoded.
// Rollback attempts are bounded (Config.MaxRollbacks) and each
// successful rollback doubles the snapshot interval, so a persistently
// faulty run backs off exponentially instead of live-locking.

// fatalInjectedFault is the panic sentinel for a fatal-severity injected
// fault (faultinject.Rule.Fatal): checkFault throws it from the faulting
// site, unwinding the trap pipeline to handleTrap's recover, which routes
// it to failTrap — the fatal rung, where rollback gets its chance.
type fatalInjectedFault struct {
	site faultinject.Site
	rip  uint64
}

func (f *fatalInjectedFault) Error() string {
	return fmt.Sprintf("injected fatal fault at %s (rip %#x)", f.site, f.rip)
}

// failTrap is the fatal rung with the rollback supervisor in front:
// restore the last checkpoint and re-execute with the distrusted RIP
// quarantined; only when rollback is unavailable, unviable or exhausted
// does the failure fall through to detach. site names the injected-fault
// site responsible ("" for organic failures) so the injector's ledger
// records the rung that actually resolved the fault.
func (r *Runtime) failTrap(uc *kernel.Ucontext, rip uint64, site faultinject.Site, err error) {
	if r.tryRollback(uc, rip) {
		if site != "" {
			r.Tel.FaultsRolledBack++
			r.inject.Resolve(site, faultinject.RolledBack)
		}
		return
	}
	if site != "" {
		r.fatalFault(site)
	}
	if uc != nil {
		// Instructions emulated earlier in this trap (walk or replay)
		// already wrote their effects into uc.CPU, but RIP is only
		// advanced when a sequence completes. Detaching with RIP at the
		// sequence start would natively re-execute the emulated prefix —
		// double-applying non-idempotent ops. Resume at the failing
		// instruction instead (a no-op for failures at trap entry).
		uc.CPU.RIP = rip
	}
	r.fatal(uc, rip, err)
}

// tryRollback restores the last snapshot and arranges re-execution,
// reporting whether it took effect. It declines when the supervisor is
// disabled, no snapshot exists yet, the attempt budget is exhausted, or
// the distrusted instruction cannot be pinned to native execution
// (re-executing would fail the same way). distrust is the RIP whose
// handling caused the fatal failure.
func (r *Runtime) tryRollback(uc *kernel.Ucontext, distrust uint64) bool {
	if r.ckptInterval == 0 {
		return false
	}
	fail := func() bool {
		r.RollbackFailures++
		r.Tel.RollbackFailures++
		return false
	}
	if uc == nil || r.ckpt == nil || r.Rollbacks >= r.maxRollbacks() {
		return fail()
	}
	// The quarantine pin serves the distrusted instruction via nativeInst,
	// which only handles the supported classes; if it cannot even be
	// decoded and classified, re-execution would hit the same wall.
	// (FetchDecode, not decodeAt: probing must not re-enter the decode
	// fault site mid-recovery.)
	in, derr := r.m.FetchDecode(distrust)
	if derr != nil || classify(in.Op) == classUnsupported {
		return fail()
	}
	for r.checkFaultPlain(faultinject.SiteCkptRestore, distrust) {
		if !r.retryFault(faultinject.SiteCkptRestore) {
			// The restore path itself is failing persistently: abandon
			// the rollback (resolved as a degradation — the ladder simply
			// continues downward) rather than reinstate suspect state.
			r.degradeFault(faultinject.SiteCkptRestore)
			return fail()
		}
	}
	if r.restoreState(r.ckpt) != nil {
		return fail() // the heap would not decode; nothing was changed
	}
	r.restoreTimeline(r.ckpt.Tel)
	r.charge(telemetry.Kernel, r.Costs.CkptRestore)
	uc.CPU = r.ckpt.CPU
	r.quarantine(distrust)
	r.Rollbacks++
	r.Tel.Rollbacks++
	// Exponential backoff: after a rollback the next snapshot is further
	// out, so repeated faults in the same region cannot pin the run to a
	// save/restore treadmill.
	r.trapsSince = 0
	r.ckptInterval *= 2
	return true
}

// quarantine pins rip to native execution: future traps there take
// pinnedNative, and every cached sequence through rip is invalidated so
// neither replay nor a stale decode can re-enter the distrusted shape.
func (r *Runtime) quarantine(rip uint64) {
	if r.quarantined == nil {
		r.quarantined = make(map[uint64]bool)
	}
	if r.quarantined[rip] {
		return
	}
	r.quarantined[rip] = true
	r.Quarantines++
	r.Tel.Quarantines++
	r.cache.InvalidateTraces(rip)
	r.cache.Invalidate(rip)
}

// maybeCheckpoint captures a snapshot at the current trap boundary once
// the interval has elapsed. ckpt.save faults retry on their budget; a
// persistent failure skips this snapshot (the previous image stays valid
// — a later rollback just rewinds further) and the next trap tries again,
// as it does after a value the codec refuses.
func (r *Runtime) maybeCheckpoint(uc *kernel.Ucontext) {
	if r.ckptInterval == 0 {
		return
	}
	r.trapsSince++
	if r.trapsSince < r.ckptInterval {
		return
	}
	for r.checkFaultPlain(faultinject.SiteCkptSave, uc.CPU.RIP) {
		if !r.retryFault(faultinject.SiteCkptSave) {
			r.degradeFault(faultinject.SiteCkptSave)
			return
		}
	}
	r.charge(telemetry.Kernel, r.Costs.CkptSave)
	img, err := r.captureState(uc.CPU)
	if err != nil {
		return
	}
	r.ckpt = img
	r.trapsSince = 0
	r.Checkpoints++
	r.Tel.Checkpoints++
}

// pinnedNative serves a trap at a quarantined RIP: decode, execute with
// pure native IEEE semantics (operands demoted, result stored plain), and
// step past — the path a rollback distrusted is simply bypassed forever.
func (r *Runtime) pinnedNative(uc *kernel.Ucontext) {
	rip := uc.CPU.RIP
	r.curRIP = rip
	entry, err := r.decodeAt(rip)
	if err != nil {
		if err == errDecodeFault {
			r.failTrap(uc, rip, faultinject.SiteDecode, fmt.Errorf("decode at quarantined rip: %w", err))
		} else {
			r.failTrap(uc, rip, "", fmt.Errorf("decode at quarantined rip: %w", err))
		}
		return
	}
	if !entry.Supported {
		// Unreachable by construction (tryRollback only quarantines RIPs
		// nativeInst can serve), but self-modifying guests could get here.
		r.failTrap(uc, rip, "", fmt.Errorf("quarantined rip holds unsupported %s", entry.Inst.Op))
		return
	}
	if err := r.nativeInst(uc, entry); err != nil {
		r.failTrap(uc, rip, "", fmt.Errorf("pinned native execution: %w", err))
		return
	}
	r.Tel.EmulatedInsts++
	uc.CPU.RIP = rip + uint64(entry.Inst.Len)
}

// maxRollbacks resolves Config.MaxRollbacks.
func (r *Runtime) maxRollbacks() uint64 {
	if r.Cfg.MaxRollbacks > 0 {
		return uint64(r.Cfg.MaxRollbacks)
	}
	return DefaultMaxRollbacks
}

// restoreTimeline rewinds the telemetry counters that describe the
// re-executed timeline (cycles, instruction/trap/event/trace counts).
// The fault ledger and supervisor counters deliberately stay monotonic:
// they mirror the injector's ledger, which is never rewound, so
// Breakdown.FaultsReconciled holds across any number of rollbacks.
func (r *Runtime) restoreTimeline(tel telemetry.Breakdown) {
	r.Tel.Cycles = tel.Cycles
	r.Tel.EmulatedInsts = tel.EmulatedInsts
	r.Tel.Traps = tel.Traps
	r.Tel.CorrEvents = tel.CorrEvents
	r.Tel.FCallEvents = tel.FCallEvents
	r.Tel.TraceHits = tel.TraceHits
	r.Tel.TraceMisses = tel.TraceMisses
	r.Tel.TraceDivergences = tel.TraceDivergences
	r.Tel.ReplayedInsts = tel.ReplayedInsts
}
