package fpvm

// Trace compiler. The L2 trace cache (trace.go) amortizes decode across
// a sequence; this file removes the per-instruction dispatch as well. The
// first replay of a trace compiles it into a chain of specialized Go
// closures — one per instruction, with the operand accessors resolved to
// direct register/memory reads, the scalar float fast path inlined with
// its fpmath op pre-mapped, and the boxedness guard compiled out where
// the instruction is warranted unconditionally (the trace head, or
// EmulateAll runs). Every replay, the first included, runs the body.
//
// Every compiled step keeps the walk's cheap boxedness guard: when an
// operand's boxedness diverges from the recorded shape, the step reports
// emNotWarranted and replay leaves through the divergence exit — the
// hardware re-runs the instruction natively and the trace stays cached.
// Compilation charges no virtual cycles (it is host-side work with no
// architectural effect), so trap boundaries, watchdog behavior,
// checkpoint cadence and the oracle's trap-stream digests do not depend
// on when or how often a VM compiles.
//
// Compiled bodies are strictly per-VM process state: the dcache snapshot
// rule clears Trace.Compiled when a shared store is frozen, on adoption
// from it and on fork clone, the checkpoint wire format never carries
// one (a restored trace compiles again on its first replay), and every
// invalidation path drops the body with its trace.

import (
	"encoding/binary"

	"fpvm/internal/dcache"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/mem"
	"fpvm/internal/telemetry"
)

// jitExec is one compiled instruction: the step's specialized emulation,
// with the same contract as emulateInst. The Runtime is a parameter, not
// a capture, so a body never outlives its VM by aliasing runtime state.
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

// compileTrace builds tr's body. Compilation charges no virtual cycles.
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
		if !r.Cfg.FutureHW {
			if exec := compileIntMove(e); exec != nil {
				return exec
			}
		}
	}
	return compileGeneric(e, first)
}

func compileGeneric(e *dcache.Entry, first bool) jitExec {
	return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
		return r.emulateInst(uc, e, first)
	}
}

// compileScalarArith is the walk's classScalarArith case with every
// per-replay decision precomputed: the fpmath op, the sqrt single-operand
// shape, the destination register, the source accessor, and — when
// warranted is true — the boxedness guard itself (hoisted out: the step
// always emulates). Charges, fault handling and the non-float fallback
// are identical to the walk's.
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
		// One heap lookup per operand feeds the guard, the path choice
		// and the resolve. sqrt reads no destination value.
		src := r.lookupOperand(srcBits)
		d := operand{bits: uc.CPU.XMM[dst][0]}
		if !sqrt {
			d = r.lookupOperand(d.bits)
		}
		if !warranted && src.kind == notBox && d.kind == notBox {
			return emNotWarranted, nil // guard failure: deopt
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		if src.kind == genericBox || d.kind == genericBox {
			// A live box holds a non-float alt value: generic path.
			uc.CPU.XMM[dst][0] = r.altScalar(op, d.bits, srcBits)
			return emOK, nil
		}
		uc.CPU.XMM[dst][0] = r.altScalarFloatOp(fop, d, src)
		return emOK, nil
	}
}

// compileMove specializes the XMM transport ops — the bulk of non-arith
// trace entries. Integer moves are compileIntMove's. Returns nil when the
// op has no specialization.
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
			return emOK, store64(r.m.Mem, ea(uc), uc.CPU.XMM[d][0])
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

// compileIntMove specializes the 64-bit integer moves, as emulateMove
// runs them: a load reads its r/m as readOperand(…, 8) does, and a store
// or immediate writes a GPR or memory r/m. The caller keeps these on the
// generic emulator under FutureHW, where an integer load first takes the
// box-escape demotion. Returns nil for other ops, and for a destination
// r/m that is neither a GPR nor memory.
func compileIntMove(e *dcache.Entry) jitExec {
	in := &e.Inst
	d := in.RegOp.Reg
	switch in.Op {
	case isa.MOV64RR, isa.MOV64RM:
		read := compileRead64(in, in.RMOp)
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			v, err := read(r, uc)
			if err != nil {
				return emOK, err
			}
			uc.CPU.GPR[d] = v
			return emOK, nil
		}
	case isa.MOV64MR:
		return compileWrite64(in, func(uc *kernel.Ucontext) uint64 { return uc.CPU.GPR[d] })
	case isa.MOV64RI:
		imm := uint64(in.Imm)
		return compileWrite64(in, func(*kernel.Ucontext) uint64 { return imm })
	}
	return nil
}

// compileWrite64 stores the value val yields to in's r/m, a GPR or
// memory, mirroring writeOperandOrGPR(…, 8, …). It returns nil for any
// other r/m kind.
func compileWrite64(in *isa.Inst, val func(*kernel.Ucontext) uint64) jitExec {
	switch o := in.RMOp; o.Kind {
	case isa.KindGPR:
		reg := o.Reg
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			uc.CPU.GPR[reg] = val(uc)
			return emOK, nil
		}
	case isa.KindMem:
		ea := compileEA(in, o)
		return func(r *Runtime, uc *kernel.Ucontext) (emStatus, error) {
			chargeMove(r)
			return emOK, store64(r.m.Mem, ea(uc), val(uc))
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
		return load64(r.m.Mem, ea(uc))
	}
}

// load64 reads the 8 bytes at addr in place from the page the address
// space's TLB holds readable, as the machine's loads do; a TLB miss, a
// page straddle or a fault takes the access path, which refills the TLB
// or reports the fault.
func load64(as *mem.AddressSpace, addr uint64) (uint64, error) {
	if pg := as.Readable(addr); pg != nil {
		if off := addr & mem.PageMask; off <= mem.PageSize-8 {
			return binary.LittleEndian.Uint64(pg[off:]), nil
		}
	}
	return as.ReadUint64(addr)
}

// store64 is load64 for stores: in place when the TLB holds the page
// writable and allocated, through the access path otherwise, which
// allocates the page on its first write, refills the TLB or reports the
// fault.
func store64(as *mem.AddressSpace, addr, v uint64) error {
	if pg := as.Writable(addr); pg != nil {
		if off := addr & mem.PageMask; off <= mem.PageSize-8 {
			binary.LittleEndian.PutUint64(pg[off:], v)
			return nil
		}
	}
	return as.WriteUint64(addr, v)
}
