package fpvm

import (
	"fmt"
	"math"

	"fpvm/internal/alt"
	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpmath"
	"fpvm/internal/heap"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// The recovery ladder (this file) replaces the old sticky-error behaviour
// of Runtime.fail(): every failure in the trap pipeline is classified and
// resolved by exactly one rung —
//
//	transient  → bounded retry (per-site, per-trap budget)
//	degradable → demote the NaN-boxed operands and re-run the work as
//	             native IEEE; the program continues at reduced precision
//	fatal      → detach cleanly: restore MXCSR to non-trapping, demote
//	             every live box in registers and memory, and leave the
//	             guest running un-virtualized (the paper's "do no harm"
//	             contract)
//
// Panics inside the emulator become degradation events (recoverTrapPanic),
// and a per-trap virtual-cycle watchdog cuts off runaway sequence
// emulation.

// trapPhase tracks what the runtime was doing when a panic is recovered:
// instruction-phase panics degrade to a native re-run of the instruction;
// anything else (GC, bookkeeping) detaches, since shared state may be
// mid-mutation.
type trapPhase uint8

const (
	phaseNone trapPhase = iota
	phaseInst
	phaseGC
)

// recoveryState is the ladder's mutable bookkeeping. It is per-runtime
// and deep-copied on fork so a child's faults never mutate the parent.
type recoveryState struct {
	// budget maps each site to its remaining retries for the trap being
	// handled; entries are cleared at every trap entry.
	budget map[faultinject.Site]int
}

func (s *recoveryState) clone() recoveryState {
	out := recoveryState{}
	if s.budget != nil {
		out.budget = make(map[faultinject.Site]int, len(s.budget))
		for k, v := range s.budget {
			out.budget[k] = v
		}
	}
	return out
}

// resetTrap starts a fresh per-trap retry budget. Only a trap that
// retried leaves anything to clear, so the common trap skips the map.
func (s *recoveryState) resetTrap() {
	if len(s.budget) != 0 {
		clear(s.budget)
	}
}

// checkFault consults the injector at site and reports whether a fault
// fired, counting it in telemetry. A fatal-severity fault (sev=fatal)
// cannot be cleared by retrying: it unwinds the trap pipeline via panic
// straight to the fatal rung, where the rollback supervisor gets first
// chance (rollback.go). The sentinel is caught by the trap handlers'
// deferred recover.
func (r *Runtime) checkFault(site faultinject.Site, rip uint64) bool {
	return r.inject != nil && r.injectedFault(site, rip)
}

// injectedFault is checkFault's consultation of an armed injector.
func (r *Runtime) injectedFault(site faultinject.Site, rip uint64) bool {
	err := r.inject.Check(site, rip)
	if err == nil {
		return false
	}
	r.Tel.FaultsInjected++
	if f, ok := err.(*faultinject.Fault); ok && f.Fatal {
		panic(&fatalInjectedFault{site: site, rip: rip})
	}
	return true
}

// checkFaultPlain is checkFault without the fatal-severity unwind, for
// sites that run inside the rollback supervisor itself (ckpt.save,
// ckpt.restore): a panic there would recurse into the recovery already in
// progress, so fatal faults at these sites exhaust the retry budget like
// persistent transients and are resolved in place by the caller.
func (r *Runtime) checkFaultPlain(site faultinject.Site, rip uint64) bool {
	if r.inject == nil || r.inject.Check(site, rip) == nil {
		return false
	}
	r.Tel.FaultsInjected++
	return true
}

// retryFault consumes one unit of site's per-trap retry budget. It
// returns true if the caller should retry the operation (the fault is
// resolved as Retried); false when the budget is exhausted — the caller
// must then degrade (or escalate) and record that resolution itself.
// With Config.RetryBackoffCycles set, each retry first charges a
// jittered exponential virtual-cycle delay (see backoffDelay) so a storm
// of co-scheduled retries spreads out instead of re-executing in
// lockstep.
func (r *Runtime) retryFault(site faultinject.Site) bool {
	if r.rec.budget == nil {
		r.rec.budget = make(map[faultinject.Site]int)
	}
	b, ok := r.rec.budget[site]
	if !ok {
		b = r.retryBudget()
	}
	if b <= 0 {
		return false
	}
	r.rec.budget[site] = b - 1
	r.Retries++
	r.Tel.FaultsRetried++
	if base := r.Cfg.RetryBackoffCycles; base > 0 {
		// Attempt index within this trap: 0 for the first retry at the
		// site, growing as the budget drains. The jitter seed is the
		// serialized running retry count, so an identical run — or a
		// faultless snapshot-resume — charges the identical schedule.
		attempt := r.retryBudget() - b
		d := backoffDelay(base, attempt, r.Tel.FaultsRetried)
		r.Tel.BackoffCycles += d
		r.charge(telemetry.Emul, d)
	}
	r.inject.Resolve(site, faultinject.Retried)
	return true
}

// backoffDelay computes the retry rung's k-th delay: base·2^attempt
// (capped at 10 doublings), jittered deterministically into
// [0.75·d, 1.25·d) by a splitmix64 draw over seq. Pure and stateless so
// the schedule replays exactly from the same (base, attempt, seq).
func backoffDelay(base uint64, attempt int, seq uint64) uint64 {
	if attempt > 10 {
		attempt = 10
	}
	d := base << uint(attempt)
	// splitmix64 of the retry ordinal — the injector's own stream must
	// not be consumed, or the jitter would perturb the fault schedule.
	z := seq + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	half := d / 2
	if half == 0 {
		return d
	}
	return d - d/4 + z%half
}

// degradeFault records an injected fault at site as resolved by
// degradation. The caller performs the actual degradation.
//
// Invalidation contract with the trace cache: degrading a decode, alt-op
// or heap-alloc fault means the instruction at curRIP was handled outside
// its recorded shape — any pre-bound sequence through that address must
// not replay, so every containing trace is killed. (gc.scan degradations
// only defer reclamation and leave traces alone; kernel.deliver is
// resolved inside the kernel before any instruction context exists.)
func (r *Runtime) degradeFault(site faultinject.Site) {
	r.Degradations++
	r.Tel.FaultsDegraded++
	r.inject.Resolve(site, faultinject.Degraded)
	switch site {
	case faultinject.SiteDecode, faultinject.SiteAltOp, faultinject.SiteHeapAlloc:
		r.cache.InvalidateTraces(r.curRIP)
	}
}

// fatalFault records an injected fault at site as resolved by detach.
func (r *Runtime) fatalFault(site faultinject.Site) {
	r.Tel.FaultsFatal++
	r.inject.Resolve(site, faultinject.Fatal)
}

func (r *Runtime) retryBudget() int {
	if r.Cfg.RetryBudget > 0 {
		return r.Cfg.RetryBudget
	}
	return DefaultRetryBudget
}

func (r *Runtime) trapCycleBudget() uint64 {
	if r.Cfg.TrapCycleBudget > 0 {
		return r.Cfg.TrapCycleBudget
	}
	return DefaultTrapCycleBudget
}

// fatal is the bottom rung: record a diagnosable error (trap RIP plus the
// faulting instruction's mnemonic) and detach, leaving the guest running
// un-virtualized. Unlike the old fail(), it does not kill the process.
func (r *Runtime) fatal(uc *kernel.Ucontext, rip uint64, err error) {
	if r.detached {
		return
	}
	mnem := "?"
	if in, ferr := r.m.FetchDecode(rip); ferr == nil {
		mnem = in.String()
	}
	r.err = fmt.Errorf("fpvm: detached at %#x (%s): %w", rip, mnem, err)
	r.FatalDetaches++
	r.detach(uc)
}

// detach implements the "do no harm" contract: MXCSR stops trapping on
// every thread, every live box reachable from registers or writable
// memory is demoted in place to a plain IEEE double, and the short-circuit
// registration is dropped. The guest continues executing natively; FPVM
// only observes (and counts) any traps still wired to it.
func (r *Runtime) detach(uc *kernel.Ucontext) {
	r.detached = true
	if uc != nil {
		uc.CPU.MXCSR = machine.MXCSRDefault
		r.demoteRoots(&uc.CPU)
	}
	for _, cpu := range r.p.AllCPUs() {
		cpu.MXCSR = machine.MXCSRDefault
		r.demoteRoots(cpu)
	}
	r.m.CPU.MXCSR = machine.MXCSRDefault
	r.demoteMemory()
	r.p.UnregisterFPVM()
}

// demoteRoots rewrites every NaN-boxed word in a register file to its
// IEEE value.
func (r *Runtime) demoteRoots(cpu *machine.CPU) {
	for i, w := range cpu.GPR {
		if r.boxedLive(w) {
			cpu.GPR[i] = r.demoteTo(w, telemetry.Corr)
		}
	}
	for i := range cpu.XMM {
		for lane := 0; lane < 2; lane++ {
			if r.boxedLive(cpu.XMM[i][lane]) {
				cpu.XMM[i][lane] = r.demoteTo(cpu.XMM[i][lane], telemetry.Corr)
			}
		}
	}
}

// demoteMemory sweeps every writable page, demoting boxed words in place
// — the detach-time (and deep-degradation) analogue of the GC scan.
func (r *Runtime) demoteMemory() {
	as := r.m.Mem
	for _, pa := range as.WritablePages() {
		if !as.Allocated(pa) {
			continue // untouched: reads as zeros, holds no box
		}
		data, _ := as.PageData(pa)
		for off := 0; off+8 <= len(data); off += 8 {
			bits := leUint64(data[off:])
			if r.boxedLive(bits) {
				_ = as.WriteUint64(pa+uint64(off), r.demoteTo(bits, telemetry.Corr))
			}
		}
	}
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// recoverTrapPanic converts a panic inside a trap handler into a ladder
// resolution. A fatalInjectedFault sentinel (fatal-severity injected
// fault) goes straight to the fatal rung, where the rollback supervisor
// gets first chance. A genuine panic — an emulator or alt-system bug —
// inside instruction context first tries rollback (re-execution from a
// clean snapshot with the instruction quarantined), then degrades by
// re-running the instruction as native IEEE on demoted operands. A panic
// outside instruction context (e.g. mid-GC, where allocator state may be
// inconsistent) has no safe degradation: rollback or detach.
func (r *Runtime) recoverTrapPanic(uc *kernel.Ucontext, pv any) {
	if ff, ok := pv.(*fatalInjectedFault); ok {
		// Not a bug but a simulated unrecoverable failure; the fault was
		// counted at its site and is resolved by whichever rung failTrap
		// reaches.
		r.failTrap(uc, r.curRIP, ff.site, ff)
		return
	}
	r.PanicRecoveries++
	r.Tel.PanicRecoveries++
	entry := r.curEntry
	if r.phase != phaseInst || entry == nil {
		r.failTrap(uc, r.curRIP, "", fmt.Errorf("panic outside instruction emulation: %v", pv))
		return
	}
	if r.tryRollback(uc, entry.Inst.Addr) {
		return
	}
	if err := r.nativeInst(uc, entry); err != nil {
		r.fatal(uc, entry.Inst.Addr, fmt.Errorf("native degradation after panic %v: %w", pv, err))
		return
	}
	r.Degradations++
	// The panicking instruction was re-run natively: its recorded shape is
	// distrusted, so no cached sequence may replay through it.
	r.cache.InvalidateTraces(entry.Inst.Addr)
	uc.CPU.RIP = entry.Inst.Addr + uint64(entry.Inst.Len)
}

// plainBits demotes an alt value straight to IEEE bits, bypassing the box
// heap — the degraded storage path.
func (r *Runtime) plainBits(v alt.Value) uint64 {
	f, cost := r.Cfg.Alt.Demote(v)
	r.charge(telemetry.Altmath, cost)
	return bits64(f)
}

// nativeInst emulates one supported instruction with pure native IEEE
// semantics: operands are demoted, the result is computed with fpmath and
// stored as plain bits (never boxed). This is the ladder's degraded
// re-run path, used after an alt-system fault or panic.
func (r *Runtime) nativeInst(uc *kernel.Ucontext, e *dcache.Entry) error {
	in := &e.Inst
	switch emulClass(e.Class) {
	case classMove:
		// A move computes nothing to degrade: it runs its own step.
		_, err := r.emulate(uc, e, true)
		return err

	case classScalarArith:
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return err
		}
		dstBits := uc.CPU.XMM[in.RegOp.Reg][0]
		fop := scalarToFPOp(in.Op)
		var res fpmath.Result
		if fop == fpmath.OpSqrt {
			res = fpmath.Eval(fop, f64(r.demote(srcBits)), 0)
		} else {
			res = fpmath.Eval(fop, f64(r.demote(dstBits)), f64(r.demote(srcBits)))
		}
		uc.CPU.XMM[in.RegOp.Reg][0] = fpmath.Bits(res.Value)
		return nil

	case classPackedArith:
		src, err := r.read128(uc, in, in.RMOp)
		if err != nil {
			return err
		}
		dst := uc.CPU.XMM[in.RegOp.Reg]
		fop := scalarToFPOp(packedToScalar(in.Op))
		for lane := 0; lane < 2; lane++ {
			var res fpmath.Result
			if fop == fpmath.OpSqrt {
				res = fpmath.Eval(fop, f64(r.demote(src[lane])), 0)
			} else {
				res = fpmath.Eval(fop, f64(r.demote(dst[lane])), f64(r.demote(src[lane])))
			}
			dst[lane] = fpmath.Bits(res.Value)
		}
		uc.CPU.XMM[in.RegOp.Reg] = dst
		return nil

	case classScalarCmp, classCompare:
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return err
		}
		dstBits := uc.CPU.XMM[in.RegOp.Reg][0]
		cr := fpmath.Compare(f64(r.demote(dstBits)), f64(r.demote(srcBits)), false)
		if emulClass(e.Class) == classCompare {
			f := uc.CPU.RFLAGS &^ machine64Flags
			switch {
			case cr.Unordered:
				f |= flagZF | flagPF | flagCF
			case cr.Less:
				f |= flagCF
			case cr.Equal:
				f |= flagZF
			}
			uc.CPU.RFLAGS = f
		} else if predicateHolds(in.Op, cr) {
			uc.CPU.XMM[in.RegOp.Reg][0] = ^uint64(0)
		} else {
			uc.CPU.XMM[in.RegOp.Reg][0] = 0
		}
		return nil

	case classPackedCmp:
		src, err := r.read128(uc, in, in.RMOp)
		if err != nil {
			return err
		}
		dst := uc.CPU.XMM[in.RegOp.Reg]
		sop := packedToScalar(in.Op)
		var out [2]uint64
		for lane := 0; lane < 2; lane++ {
			cr := fpmath.Compare(f64(r.demote(dst[lane])), f64(r.demote(src[lane])), false)
			if predicateHolds(sop, cr) {
				out[lane] = ^uint64(0)
			}
		}
		uc.CPU.XMM[in.RegOp.Reg] = out
		return nil

	case classCvtToInt:
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return err
		}
		f := f64(r.demote(srcBits))
		var res int64
		switch {
		case math.IsNaN(f) || f >= 0x1p63 || f < -0x1p63:
			res = math.MinInt64
		case in.Op == isa.CVTTSD2SI:
			res = int64(math.Trunc(f))
		default:
			res = int64(math.RoundToEven(f))
		}
		uc.CPU.GPR[in.RegOp.Reg] = uint64(res)
		return nil

	case classCvtFromInt:
		v, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return err
		}
		uc.CPU.XMM[in.RegOp.Reg][0] = bits64(float64(int64(v)))
		return nil

	case classRound:
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return err
		}
		f := f64(r.demote(srcBits))
		var rv float64
		switch in.Imm & 3 {
		case 0:
			rv = math.RoundToEven(f)
		case 1:
			rv = math.Floor(f)
		case 2:
			rv = math.Ceil(f)
		default:
			rv = math.Trunc(f)
		}
		uc.CPU.XMM[in.RegOp.Reg][0] = bits64(rv)
		return nil
	}
	return fmt.Errorf("fpvm: nativeInst on unsupported op %s", in.Op)
}

// boxOrDegrade allocates a heap box for v (after temps), enforcing the
// MaxLiveBoxes hard cap: at the cap it forces a collection and, if the
// heap is still full, stores the value as plain IEEE bits instead — the
// heap.ErrHeapFull degradation of the ladder.
func (r *Runtime) boxOrDegrade(v alt.Value, sign uint64) uint64 {
	if r.alloc.AtCap() {
		r.forceGC()
	}
	h, err := r.alloc.TryAlloc(v)
	if err != nil { // heap.ErrHeapFull even after collecting
		r.HeapFullDegrades++
		r.Degradations++
		return r.plainBits(v) ^ sign
	}
	r.Boxes++
	return boxBits(h) | sign
}

// forceGC runs an immediate collection (cap pressure), using the current
// trap's ucontext as the authoritative root set for the trapping thread
// when available.
func (r *Runtime) forceGC() {
	r.collect(r.gcRoots(r.curUC))
}

// collect wraps Allocator.Collect with the gc.scan fault site: transient
// scan faults retry; once the budget is exhausted the collection is
// skipped (reclamation is deferred — safe, only memory pressure suffers).
func (r *Runtime) collect(roots []*heap.Roots) {
	prevPhase := r.phase
	r.phase = phaseGC
	defer func() { r.phase = prevPhase }()
	for r.checkFault(faultinject.SiteGCScan, r.curRIP) {
		if !r.retryFault(faultinject.SiteGCScan) {
			r.degradeFault(faultinject.SiteGCScan)
			r.GCSkips++
			return
		}
	}
	_, cycles := r.alloc.Collect(r.m.Mem, roots...)
	r.GCRuns++
	r.charge(telemetry.GC, cycles)
}
