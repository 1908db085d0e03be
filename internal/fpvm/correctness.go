package fpvm

import (
	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/telemetry"
)

// Correctness instrumentation (§2.6, §5): before an integer instruction
// that may consume a floating point value through memory or a register,
// the patcher inserts either an int3 (traditional trap, SIGTRAP path) or a
// call to the magic trampoline (kernel-bypass path). Both land here, where
// FPVM demotes any NaN-boxed values the instruction would observe.

// handleCorrectnessTrap is the SIGTRAP handler: RIP points just past the
// int3, i.e. at the patched instruction.
func (r *Runtime) handleCorrectnessTrap(uc *kernel.Ucontext) {
	if r.detached {
		// After detach every box has been demoted in place, so the
		// patched instruction observes plain IEEE bits; nothing to do.
		r.Aborted++
		r.Tel.AbortedTraps++
		return
	}
	c := r.p.K.Costs
	// The whole delegation round-trip is correctness overhead (hw +
	// signal delivery + sigreturn), per the paper's corr accounting.
	r.Tel.Add(telemetry.Corr, c.HWDispatch+c.SignalDeliver+c.Sigreturn)
	r.Tel.CorrEvents++
	r.charge(telemetry.Corr, r.Costs.CorrHandler)
	r.curUC, r.curRIP = uc, uc.CPU.RIP
	defer func() {
		if pv := recover(); pv != nil {
			r.recoverTrapPanic(uc, pv)
		}
		r.curUC, r.curEntry, r.phase = nil, nil, phaseNone
	}()
	if r.corrFaulted(uc.CPU.RIP, &uc.CPU) {
		return
	}
	if err := r.demoteForInstruction(&uc.CPU, uc.CPU.RIP); err != nil {
		r.fatal(uc, uc.CPU.RIP, err)
	}
}

// corrFaulted runs the corr.trap fault site for a correctness event at
// site. When the retry budget runs out the handler degrades to the
// conservative full sweep: every boxed word the patched instruction could
// possibly observe — all registers and all writable memory — is demoted
// in place. Always safe (boxes decode to their IEEE value), just slow;
// the runtime stays attached. Returns true when the sweep replaced the
// targeted demotion.
func (r *Runtime) corrFaulted(site uint64, cpu *machine.CPU) bool {
	for r.checkFault(faultinject.SiteCorrTrap, site) {
		if !r.retryFault(faultinject.SiteCorrTrap) {
			r.degradeFault(faultinject.SiteCorrTrap)
			r.demoteRoots(cpu)
			r.demoteMemory()
			return true
		}
	}
	return false
}

// magicTrapHandler is the host bridge target reached through the magic
// page pointer: patch site does `call trampoline`; the trampoline does
// `call [magic page + 8]`. Guest stack layout on entry:
//
//	[rsp]   = return address into the trampoline
//	[rsp+8] = return address to the patch site = address of the patched
//	          instruction
func (r *Runtime) magicTrapHandler(p *kernel.Process) error {
	if r.detached {
		r.Aborted++
		r.Tel.AbortedTraps++
		return nil
	}
	r.Tel.CorrEvents++
	r.charge(telemetry.Corr, r.Costs.MagicCall+r.Costs.CorrHandler)
	sp := p.M.CPU.GPR[isa.RSP]
	site, err := p.M.Mem.ReadUint64(sp + 8)
	if err != nil {
		return err
	}
	// No ucontext here (the magic path mutates the machine CPU directly),
	// so a fatal-severity fault cannot roll back: the recover routes it
	// down the ladder to detach.
	r.curRIP = site
	defer func() {
		if pv := recover(); pv != nil {
			r.recoverTrapPanic(nil, pv)
		}
		r.curUC, r.curEntry, r.phase = nil, nil, phaseNone
	}()
	if r.corrFaulted(site, &p.M.CPU) {
		return nil
	}
	// The patched instruction will execute after both returns pop their
	// frames, i.e. with rsp 16 bytes higher than it is here. Stack-relative
	// operands must be resolved against that rsp — this is why the paper's
	// trampoline "manages the stack frame so that ... the wrapper
	// function's stack frame does not exist" (§5.3 applies the same care).
	p.M.CPU.GPR[isa.RSP] += 16
	err = r.demoteForInstruction(&p.M.CPU, site)
	p.M.CPU.GPR[isa.RSP] -= 16
	return err
}

// handleBoxEscape serves the future-work hardware box-escape event: the
// CPU caught an integer load about to observe a NaN-boxed word at addr;
// demote it in place and resume (the load re-executes against plain
// bits). No binary patching, no kernel, no signal — the whole §5 apparatus
// reduced to one demotion.
func (r *Runtime) handleBoxEscape(uc *kernel.Ucontext, addr uint64) error {
	r.Tel.CorrEvents++
	r.charge(telemetry.Corr, r.Costs.CorrHandler/2)
	bits, err := r.m.Mem.ReadUint64(addr)
	if err != nil {
		return err
	}
	if r.boxedLive(bits) {
		return r.m.Mem.WriteUint64(addr, r.demoteTo(bits, telemetry.Corr))
	}
	// A pattern collision with an application NaN: nothing to demote; the
	// hardware's resume waiver lets the load complete with the raw bits.
	return nil
}

// demoteForInstruction decodes the patched instruction and demotes, in
// place, every NaN-boxed value it could observe in an integer context:
// the 8-byte block behind a memory source, and any GPR source registers
// (boxed bits flow into GPRs through movq and friends).
func (r *Runtime) demoteForInstruction(cpu *machine.CPU, addr uint64) error {
	in, err := r.m.FetchDecode(addr)
	if err != nil {
		return err
	}

	demoteGPR := func(reg isa.Reg) {
		if r.boxedLive(cpu.GPR[reg]) {
			cpu.GPR[reg] = r.demoteTo(cpu.GPR[reg], telemetry.Corr)
		}
	}

	// Memory source: demote the containing 8-byte block (the profiler
	// marks at 8-byte granularity, §5.1).
	if m, ok := in.MemOperand(); ok {
		ea := r.eaCPU(cpu, &in, m)
		block := ea &^ 7
		bits, err := r.m.Mem.ReadUint64(block)
		if err == nil && r.boxedLive(bits) {
			if werr := r.m.Mem.WriteUint64(block, r.demoteTo(bits, telemetry.Corr)); werr != nil {
				return werr
			}
		}
	}

	// Register sources of integer instructions.
	regCls, rmCls := in.Op.RegClasses()
	if regCls == isa.ClassGPR && in.RegOp.Kind == isa.KindGPR {
		demoteGPR(in.RegOp.Reg)
	}
	if rmCls == isa.ClassGPR && in.RMOp.Kind == isa.KindGPR {
		demoteGPR(in.RMOp.Reg)
	}
	return nil
}

// eaCPU computes an effective address against an arbitrary CPU snapshot.
func (r *Runtime) eaCPU(cpu *machine.CPU, in *isa.Inst, o isa.Operand) uint64 {
	if o.RIPRel {
		return in.Addr + uint64(in.Len) + uint64(int64(o.Disp))
	}
	var a uint64
	if o.Base != isa.NoReg {
		a = cpu.GPR[o.Base]
	}
	if o.Index != isa.NoReg {
		a += cpu.GPR[o.Index] * uint64(o.Scale)
	}
	return a + uint64(int64(o.Disp))
}
