package fpvm

// Instruction steps: one emulator per instruction. newEntry builds each
// supported instruction's step when it builds the instruction's decode
// entry — on a decode-cache miss (decodeAt) and when a restored snapshot
// re-decodes its cache (restoreCache) — and the step stays on the
// immutable dcache.Entry. The per-instruction walk and trace replay both
// run it. Scalar arithmetic gets the float fast path with its fpmath op
// pre-mapped and its operand accessors resolved to direct register and
// memory reads; the XMM and 64-bit integer transport ops get direct
// register-file and in-place memory moves; every other class runs the
// generic emulator (emulateInst).
//
// A step holds no VM state. It takes the Runtime and first (the faulting
// instruction, always emulated) as arguments, and reads the alt system's
// float interface (r.flt), EmulateAll and FutureHW when it runs, so an
// entry keeps its step through frozen shared stores, adoption, fork and
// restore, and a store trained under one configuration serves VMs under
// any other. Building a step charges no virtual cycles (it is host-side
// work with no architectural effect); running one charges what the
// instruction's emulation costs, whichever path runs it.
//
// Every step that is not the faulting instruction keeps the cheap
// boxedness guard: when no operand is boxed, the step reports
// emNotWarranted, the walk ends its sequence there, and replay leaves
// through the divergence exit — the hardware re-runs the instruction
// natively and the trace stays cached.

import (
	"encoding/binary"

	"fpvm/internal/dcache"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/mem"
	"fpvm/internal/telemetry"
)

// step is one instruction's emulator, stored in dcache.Entry.Step. first
// marks the faulting instruction; any other is emulated only when one of
// its operands is boxed (§4.2 condition (2)) or the run sets EmulateAll.
type step func(r *Runtime, uc *kernel.Ucontext, first bool) (emStatus, error)

// newEntry classifies in and builds its step: every decode entry is made
// here.
func newEntry(in isa.Inst) *dcache.Entry {
	cls := classify(in.Op)
	e := &dcache.Entry{Inst: in, Supported: cls != classUnsupported, Class: uint8(cls)}
	if e.Supported {
		e.Step = compileStep(e)
	}
	return e
}

// emulate runs a supported entry's step.
func (r *Runtime) emulate(uc *kernel.Ucontext, e *dcache.Entry, first bool) (emStatus, error) {
	return e.Step.(step)(r, uc, first)
}

// compileStep specializes one decoded instruction: scalar arithmetic and
// the transport ops compileMove knows get their own steps, and everything
// else runs the generic emulator, which dispatches on the class cached in
// the entry.
func compileStep(e *dcache.Entry) step {
	switch emulClass(e.Class) {
	case classScalarArith:
		return compileScalarArith(e)
	case classMove:
		if s := compileMove(e); s != nil {
			return s
		}
	}
	return func(r *Runtime, uc *kernel.Ucontext, first bool) (emStatus, error) {
		return r.emulateInst(uc, e, first)
	}
}

// compileScalarArith emulates addsd, subsd, mulsd, divsd, sqrtsd, minsd
// and maxsd with every per-instruction decision made once: the fpmath op,
// the sqrt single-operand shape, the destination register and the source
// accessor. It charges bind before the operand read and emul after the
// guard; a live box holding a non-float value, or an alt system without
// alt.FloatSystem, takes the generic altScalar, and everything else the
// allocation-free float path.
func compileScalarArith(e *dcache.Entry) step {
	in := &e.Inst
	op := in.Op
	fop := scalarToFPOp(op)
	sqrt := op == isa.SQRTSD
	dst := in.RegOp.Reg
	readSrc := compileRead64(in, in.RMOp)
	return func(r *Runtime, uc *kernel.Ucontext, first bool) (emStatus, error) {
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
		if !first && !r.Cfg.EmulateAll && src.kind == notBox && d.kind == notBox {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		if r.flt == nil || src.kind == genericBox || d.kind == genericBox {
			uc.CPU.XMM[dst][0] = r.altScalar(op, d.bits, srcBits)
			return emOK, nil
		}
		uc.CPU.XMM[dst][0] = r.altScalarFloatOp(fop, d, src)
		return emOK, nil
	}
}

// compileMove specializes the 64-bit integer moves and the XMM transport
// ops, the bulk of non-arithmetic sequence entries. It returns nil for
// the moves emulateMove serves (8-, 16- and 32-bit and 128-bit memory
// moves).
func compileMove(e *dcache.Entry) step {
	in := &e.Inst
	d := in.RegOp.Reg
	switch in.Op {
	case isa.MOV64RR, isa.MOV64RM:
		read := compileRead64(in, in.RMOp)
		escape := in.Op == isa.MOV64RM
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			if escape {
				// Under FutureHW an emulated integer load first takes the
				// hardware box-escape demotion.
				if err := r.hwEscapeDemote(uc, in, in.RMOp); err != nil {
					return emOK, err
				}
			}
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
	case isa.MOVSDXX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d][0] = uc.CPU.XMM[s][0]
			return emOK, nil
		}
	case isa.MOVAPDXX, isa.MOVDQAXX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d] = uc.CPU.XMM[s]
			return emOK, nil
		}
	case isa.MOVSDXM, isa.MOVQXM:
		read := compileRead64(in, in.RMOp)
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
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
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
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
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			return emOK, store64(r.m.Mem, ea(uc), uc.CPU.XMM[d][0])
		}
	case isa.MOVQXG:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d] = [2]uint64{uc.CPU.GPR[s], 0}
			return emOK, nil
		}
	case isa.MOVQGX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.GPR[d] = uc.CPU.XMM[s][0]
			return emOK, nil
		}
	case isa.MOVDXG:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.XMM[d] = [2]uint64{uint64(uint32(uc.CPU.GPR[s])), 0}
			return emOK, nil
		}
	case isa.MOVDGX:
		s := in.RMOp.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.GPR[d] = uint64(uint32(uc.CPU.XMM[s][0]))
			return emOK, nil
		}
	}
	return nil
}

// compileWrite64 stores the value val yields to in's r/m, a GPR or else
// memory, as writeOperandOrGPR(…, 8, …) does.
func compileWrite64(in *isa.Inst, val func(*kernel.Ucontext) uint64) step {
	if o := in.RMOp; o.Kind == isa.KindGPR {
		reg := o.Reg
		return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
			chargeMove(r)
			uc.CPU.GPR[reg] = val(uc)
			return emOK, nil
		}
	}
	ea := compileEA(in, in.RMOp)
	return func(r *Runtime, uc *kernel.Ucontext, _ bool) (emStatus, error) {
		chargeMove(r)
		return emOK, store64(r.m.Mem, ea(uc), val(uc))
	}
}

func chargeMove(r *Runtime) {
	r.charge(telemetry.Bind, r.Costs.BindMove)
	r.charge(telemetry.Emul, r.Costs.EmulMove)
}

// compileEA pre-resolves a memory operand's effective-address shape:
// RIP-relative addresses collapse to a constant, and the base/index/scale
// combination picks one of four direct-read closures — no per-step
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
