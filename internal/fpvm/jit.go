package fpvm

// Tier-1 trace JIT. The L2 trace cache (trace.go) already amortizes
// decode across a sequence, but every interpreted replay still pays a
// per-instruction dispatch: class switch, operand-kind switch, op→fpmath
// mapping. Once a trace's replay counter (Trace.Hits) crosses the
// promotion threshold, this file compiles it into a chain of specialized
// Go closures — one per instruction, with the operand accessors resolved
// to direct register/memory reads, the scalar float fast path from
// replayScalarArith inlined with its fpmath op pre-mapped, and the
// boxedness guard compiled out where the instruction is warranted
// unconditionally (the trace head, or EmulateAll runs).
//
// Every compiled step keeps the same cheap guard the interpreter
// evaluates: when an operand's boxedness diverges from the recorded
// shape, the step reports emNotWarranted and the body deopts through the
// existing divergence exit — the hardware re-runs the instruction
// natively and the trace stays cached, exactly like an interpreted
// divergence, plus a jit_deopt count. Compilation and compiled execution
// charge the same virtual cycles as interpreted replay, so trap
// boundaries, watchdog behavior, checkpoint cadence and the oracle's
// trap-stream digests are bit-identical across tiers; the JIT's win is
// host time only.
//
// Compiled bodies are strictly per-VM process state: the dcache snapshot
// rules clear Trace.Compiled when a shared store is frozen, on adoption
// from it and on fork clone, the checkpoint wire format never carries one (restored caches
// re-promote from their preserved Hits counters), and every invalidation
// path drops the body with its trace.

import (
	"fmt"

	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/telemetry"
)

// jitExec is one compiled instruction: the step's specialized emulation,
// with the same contract as replayInst. The Runtime is a parameter, not a
// capture, so a body never outlives its VM by aliasing runtime state.
type jitExec func(*Runtime, *kernel.Ucontext) (emStatus, error)

// jitStep pairs a compiled instruction with the addresses the replay loop
// needs, precomputed so the loop never touches isa.Inst.
type jitStep struct {
	addr  uint64 // instruction address (fault checks, invalidation)
	next  uint64 // fall-through resume address (addr + length)
	entry *dcache.Entry
	exec  jitExec
}

// jitBody is a compiled trace, stored in Trace.Compiled.
type jitBody struct {
	steps []jitStep
}

// promoteTrace returns tr's compiled body, compiling it the first time
// the replay counter is found at or above the promotion threshold.
// Compilation itself charges no virtual cycles: it is host-side work with
// no architectural effect, and keeping it free preserves cycle-exactness
// between tiers (and across snapshot/resume, which recompiles).
func (r *Runtime) promoteTrace(tr *dcache.Trace) *jitBody {
	if !r.jitOn {
		return nil
	}
	if body, ok := tr.Compiled.(*jitBody); ok {
		return body
	}
	if tr.Hits < r.jitThreshold {
		return nil
	}
	body := r.compileTrace(tr)
	tr.Compiled = body
	r.JITCompiles++
	return body
}

func (r *Runtime) compileTrace(tr *dcache.Trace) *jitBody {
	steps := make([]jitStep, len(tr.Entries))
	for i, e := range tr.Entries {
		steps[i] = jitStep{
			addr:  e.Inst.Addr,
			next:  e.Inst.Addr + uint64(e.Inst.Len),
			entry: e,
			exec:  r.compileStep(e, i == 0),
		}
	}
	return &jitBody{steps: steps}
}

// compileStep specializes one pre-decoded instruction. Scalar arithmetic
// gets the fully inlined float fast path (when the alt system supports
// it), the common XMM transport ops get direct register-file/memory
// closures, and everything else falls back to a closure over the generic
// emulator — still skipping the per-replay entry traversal and class
// dispatch. Baking runtime facts (EmulateAll, FloatSystem presence) into
// the closure is safe because bodies never cross VM boundaries.
func (r *Runtime) compileStep(e *dcache.Entry, first bool) jitExec {
	switch emulClass(e.Class) {
	case classScalarArith:
		if r.flt != nil {
			return compileScalarArith(e, first || r.Cfg.EmulateAll)
		}
	case classMove:
		if exec := compileMove(e); exec != nil {
			return exec
		}
	}
	return compileGeneric(e, first)
}

func compileGeneric(e *dcache.Entry, first bool) jitExec {
	return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
		return r.emulateInst(uc, e, first)
	}
}

// compileScalarArith inlines replayScalarArith with every per-replay
// decision precomputed: the fpmath op, the sqrt single-operand shape, the
// destination register, the source accessor, and — when warranted is true
// — the boxedness guard itself (hoisted out: the step always emulates).
// Charges, fault handling and the non-float fallback are identical to the
// interpreted step.
func compileScalarArith(e *dcache.Entry, warranted bool) jitExec {
	in := &e.Inst
	op := in.Op
	fop := scalarToFPOp(op)
	sqrt := op == isa.SQRTSD
	dst := in.RegOp.Reg
	readSrc := compileRead64(in, in.RMOp)
	return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
		r.charge(telemetry.Bind, r.Costs.BindArith)
		srcBits, err := readSrc(r, uc)
		if err != nil {
			return emOK, err
		}
		dstBits := uc.CPU.XMM[dst][0]
		if !warranted && !r.boxedLive(srcBits) && (sqrt || !r.boxedLive(dstBits)) {
			return emNotWarranted, nil // guard failure: deopt
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		if !r.floatResolvable(srcBits) || (!sqrt && !r.floatResolvable(dstBits)) {
			// A live box holds a non-float alt value: generic path.
			uc.CPU.XMM[dst][0] = r.altScalar(op, dstBits, srcBits)
			return emOK, nil
		}
		uc.CPU.XMM[dst][0] = r.altScalarFloatOp(fop, dstBits, srcBits)
		return emOK, nil
	}
}

// compileMove specializes the XMM transport ops — the bulk of non-arith
// trace entries. Integer moves stay on the generic emulator (they carry
// the FutureHW escape-demote side channel). Returns nil when the op has
// no specialization.
func compileMove(e *dcache.Entry) jitExec {
	in := &e.Inst
	d := in.RegOp.Reg
	switch in.Op {
	case isa.MOVSDXX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d][0] = uc.CPU.XMM[s][0]
			return emOK, nil
		}
	case isa.MOVAPDXX, isa.MOVDQAXX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d] = uc.CPU.XMM[s]
			return emOK, nil
		}
	case isa.MOVSDXM, isa.MOVQXM:
		read := compileRead64(in, in.RMOp)
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			v, err := read(r, uc)
			if err != nil {
				return emOK, err
			}
			uc.CPU.XMM[d] = [2]uint64{v, 0}
			return emOK, nil
		}
	case isa.MOVDDUP:
		read := compileRead64(in, in.RMOp)
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			v, err := read(r, uc)
			if err != nil {
				return emOK, err
			}
			uc.CPU.XMM[d] = [2]uint64{v, v}
			return emOK, nil
		}
	case isa.MOVSDMX, isa.MOVQMX:
		ea := compileEA(in, in.RMOp)
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			return emOK, r.m.Mem.WriteUint64(ea(uc), uc.CPU.XMM[d][0])
		}
	case isa.MOVQXG:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d] = [2]uint64{uc.CPU.GPR[s], 0}
			return emOK, nil
		}
	case isa.MOVQGX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.GPR[d] = uc.CPU.XMM[s][0]
			return emOK, nil
		}
	case isa.MOVDXG:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d] = [2]uint64{uint64(uint32(uc.CPU.GPR[s])), 0}
			return emOK, nil
		}
	case isa.MOVDGX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.GPR[d] = uint64(uint32(uc.CPU.XMM[s][0]))
			return emOK, nil
		}
	}
	return nil
}

func chargeMove(r *Runtime) {
	r.charge(telemetry.Bind, r.Costs.BindMove)
	r.charge(telemetry.Emul, r.Costs.EmulMove)
}

// compileEA pre-resolves a memory operand's effective-address shape:
// RIP-relative addresses collapse to a constant, and the base/index/scale
// combination picks one of four direct-read closures — no per-replay
// operand-kind or addressing-mode dispatch. Semantics match Runtime.ea.
func compileEA(in *isa.Inst, o isa.Operand) func(*kernel.Ucontext) uint64 {
	if o.RIPRel {
		addr := in.Addr + uint64(in.Len) + uint64(int64(o.Disp))
		return func(*kernel.Ucontext) uint64 { return addr }
	}
	disp := uint64(int64(o.Disp))
	base, index, scale := o.Base, o.Index, uint64(o.Scale)
	switch {
	case base != isa.NoReg && index != isa.NoReg:
		return func(uc *kernel.Ucontext) uint64 {
			return uc.CPU.GPR[base] + uc.CPU.GPR[index]*scale + disp
		}
	case base != isa.NoReg:
		return func(uc *kernel.Ucontext) uint64 { return uc.CPU.GPR[base] + disp }
	case index != isa.NoReg:
		return func(uc *kernel.Ucontext) uint64 { return uc.CPU.GPR[index]*scale + disp }
	default:
		return func(*kernel.Ucontext) uint64 { return disp }
	}
}

// compileRead64 pre-resolves an 8-byte r/m read to a direct accessor,
// mirroring readOperand(…, 8).
func compileRead64(in *isa.Inst, o isa.Operand) func(*Runtime, *kernel.Ucontext) (uint64, error) {
	switch o.Kind {
	case isa.KindGPR:
		reg := o.Reg
		return func(_ *Runtime, uc *kernel.Ucontext) (uint64, error) {
			return uc.CPU.GPR[reg], nil
		}
	case isa.KindXMM:
		reg := o.Reg
		return func(_ *Runtime, uc *kernel.Ucontext) (uint64, error) {
			return uc.CPU.XMM[reg][0], nil
		}
	case isa.KindImm:
		v := uint64(o.Imm)
		return func(*Runtime, *kernel.Ucontext) (uint64, error) { return v, nil }
	}
	ea := compileEA(in, o)
	return func(r *Runtime, uc *kernel.Ucontext) (uint64, error) {
		return r.m.Mem.ReadUint64(ea(uc))
	}
}

// replayCompiled is replayTrace's loop over a compiled body: identical
// control flow, charges, fault handling and counters, but each iteration
// is an indexed step array walk plus one indirect call — no Entry
// traversal, no class or operand dispatch. Fault checks are skipped
// wholesale when no injector is armed (the nil-injector check is
// side-effect-free), and the watchdog budget is hoisted (it is a pure
// config read).
func (r *Runtime) replayCompiled(uc *kernel.Ucontext, tr *dcache.Trace, body *jitBody, trapStart uint64) bool {
	r.charge(telemetry.Decache, r.Costs.TraceHit)
	r.Tel.JITExecs++

	count := 0
	reason := tr.Reason
	rip := tr.Start
	inject := r.inject != nil
	budget := r.trapCycleBudget()

	for i := range body.steps {
		step := &body.steps[i]
		rip = step.addr
		r.curRIP = rip

		if inject && r.checkFault(faultinject.SiteDecode, rip) {
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
		r.curEntry, r.phase = step.entry, phaseInst
		status, err := step.exec(r, uc)
		r.curEntry, r.phase = nil, phaseNone
		if err != nil {
			if count > 0 {
				// Mid-sequence bind/memory error: same degradation as the
				// interpreted loop — end the sequence and drop the traces
				// through the distrusted instruction (with its body).
				r.Degradations++
				r.cache.InvalidateTraces(rip)
				reason = dcache.TermUnsupported
				break
			}
			r.failTrap(uc, rip, "", err)
			return true
		}
		if status == emNotWarranted {
			// Tier-1 guard failure: deopt to the interpreter through the
			// divergence exit. The trace (and its body) stays cached —
			// boxedness oscillation is normal, and the next trap at this
			// start replays interpreted or compiled as counters dictate.
			tr.Divergences++
			r.Tel.TraceDivergences++
			r.Tel.JITDeopts++
			reason = dcache.TermNoBoxedSource
			break
		}
		count++
		r.Tel.EmulatedInsts++
		r.Tel.ReplayedInsts++
		r.Tel.JITInsts++
		rip = step.next

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
		// Defensive, mirroring replayTrace: never claim an empty trap
		// handled.
		return false
	}

	if count == len(body.steps) {
		rip = tr.EndRIP
	}

	tr.Hits++
	uc.CPU.RIP = rip

	if r.Profile != nil {
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
