package fpvm

import (
	"fmt"
	"math"

	"fpvm/internal/alt"
	"fpvm/internal/dcache"
	"fpvm/internal/faultinject"
	"fpvm/internal/fpmath"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/nanbox"
	"fpvm/internal/telemetry"
)

func f64(bits uint64) float64 { return math.Float64frombits(bits) }
func bits64(f float64) uint64 { return math.Float64bits(f) }
func boxBits(h uint64) uint64 { return nanbox.Box(h) }
func nanboxHandle(bits uint64) (uint64, bool) {
	return nanbox.Handle(bits)
}

// emStatus reports the outcome of an emulation attempt.
type emStatus uint8

const (
	emOK emStatus = iota
	// emNotWarranted: the instruction is emulatable but no source operand
	// is NaN-boxed — §4.2 condition (2): emulating it would be slower
	// than letting the hardware run it (and it may then legitimately
	// fault on its own).
	emNotWarranted
)

// ea computes the effective address of a memory operand against the
// ucontext register state (the FPVM "bind" step resolves operands against
// the saved context, not the live CPU).
func (r *Runtime) ea(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand) uint64 {
	if o.RIPRel {
		return in.Addr + uint64(in.Len) + uint64(int64(o.Disp))
	}
	var a uint64
	if o.Base != isa.NoReg {
		a = uc.CPU.GPR[o.Base]
	}
	if o.Index != isa.NoReg {
		a += uc.CPU.GPR[o.Index] * uint64(o.Scale)
	}
	return a + uint64(int64(o.Disp))
}

// readOperand reads an operand with the given width (bytes), zero
// extended.
func (r *Runtime) readOperand(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand, size int) (uint64, error) {
	switch o.Kind {
	case isa.KindGPR:
		return uc.CPU.GPR[o.Reg], nil
	case isa.KindXMM:
		return uc.CPU.XMM[o.Reg][0], nil
	case isa.KindImm:
		return uint64(o.Imm), nil
	}
	addr := r.ea(uc, in, o)
	switch size {
	case 1:
		v, err := r.m.Mem.ReadUint8(addr)
		return uint64(v), err
	case 2:
		v, err := r.m.Mem.ReadUint16(addr)
		return uint64(v), err
	case 4:
		v, err := r.m.Mem.ReadUint32(addr)
		return uint64(v), err
	default:
		return r.m.Mem.ReadUint64(addr)
	}
}

func (r *Runtime) writeOperandMem(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand, size int, v uint64) error {
	addr := r.ea(uc, in, o)
	switch size {
	case 1:
		return r.m.Mem.WriteUint8(addr, uint8(v))
	case 2:
		return r.m.Mem.WriteUint16(addr, uint16(v))
	case 4:
		return r.m.Mem.WriteUint32(addr, uint32(v))
	default:
		return r.m.Mem.WriteUint64(addr, v)
	}
}

// read128 reads a 16-byte r/m operand (both lanes).
func (r *Runtime) read128(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand) ([2]uint64, error) {
	if o.Kind == isa.KindXMM {
		return uc.CPU.XMM[o.Reg], nil
	}
	addr := r.ea(uc, in, o)
	lo, err := r.m.Mem.ReadUint64(addr)
	if err != nil {
		return [2]uint64{}, err
	}
	hi, err := r.m.Mem.ReadUint64(addr + 8)
	if err != nil {
		return [2]uint64{}, err
	}
	return [2]uint64{lo, hi}, nil
}

func (r *Runtime) write128(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand, v [2]uint64) error {
	if o.Kind == isa.KindXMM {
		uc.CPU.XMM[o.Reg] = v
		return nil
	}
	addr := r.ea(uc, in, o)
	if err := r.m.Mem.WriteUint64(addr, v[0]); err != nil {
		return err
	}
	return r.m.Mem.WriteUint64(addr+8, v[1])
}

// boxedLive reports whether bits is a live FPVM box.
func (r *Runtime) boxedLive(bits uint64) bool {
	h, ok := nanboxHandle(bits)
	return ok && r.alloc.Has(h)
}

// emulateInst binds and emulates one instruction of a class without a
// specialized step (jit.go) against the ucontext: packed arithmetic,
// compares, conversions, roundsd and the moves emulateMove serves. first
// marks the faulting instruction (always emulated).
func (r *Runtime) emulateInst(uc *kernel.Ucontext, e *dcache.Entry, first bool) (emStatus, error) {
	in := &e.Inst
	cls := emulClass(e.Class) // classified once at decode, cached in the entry

	switch cls {
	case classMove:
		r.charge(telemetry.Bind, r.Costs.BindMove)
		r.charge(telemetry.Emul, r.Costs.EmulMove)
		return emOK, r.emulateMove(uc, in)

	case classPackedArith:
		r.charge(telemetry.Bind, r.Costs.BindArith)
		src, err := r.read128(uc, in, in.RMOp)
		if err != nil {
			return emOK, err
		}
		dst := uc.CPU.XMM[in.RegOp.Reg]
		anyBoxed := r.boxedLive(src[0]) || r.boxedLive(src[1])
		if in.Op != isa.SQRTPD {
			anyBoxed = anyBoxed || r.boxedLive(dst[0]) || r.boxedLive(dst[1])
		}
		if !first && !r.Cfg.EmulateAll && !anyBoxed {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		sop := packedToScalar(in.Op)
		uc.CPU.XMM[in.RegOp.Reg] = [2]uint64{
			r.altScalar(sop, dst[0], src[0]),
			r.altScalar(sop, dst[1], src[1]),
		}
		return emOK, nil

	case classScalarCmp, classCompare:
		r.charge(telemetry.Bind, r.Costs.BindArith)
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return emOK, err
		}
		dstBits := uc.CPU.XMM[in.RegOp.Reg][0]
		if !first && !r.Cfg.EmulateAll && !r.boxedLive(srcBits) && !r.boxedLive(dstBits) {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		cr := r.altCompare(dstBits, srcBits)
		if cls == classCompare {
			f := uc.CPU.RFLAGS &^ (machine64Flags)
			switch {
			case cr.Unordered:
				f |= flagZF | flagPF | flagCF
			case cr.Less:
				f |= flagCF
			case cr.Equal:
				f |= flagZF
			}
			uc.CPU.RFLAGS = f
		} else {
			if predicateHolds(in.Op, cr) {
				uc.CPU.XMM[in.RegOp.Reg][0] = ^uint64(0)
			} else {
				uc.CPU.XMM[in.RegOp.Reg][0] = 0
			}
		}
		return emOK, nil

	case classPackedCmp:
		r.charge(telemetry.Bind, r.Costs.BindArith)
		src, err := r.read128(uc, in, in.RMOp)
		if err != nil {
			return emOK, err
		}
		dst := uc.CPU.XMM[in.RegOp.Reg]
		anyBoxed := r.boxedLive(src[0]) || r.boxedLive(src[1]) ||
			r.boxedLive(dst[0]) || r.boxedLive(dst[1])
		if !first && !r.Cfg.EmulateAll && !anyBoxed {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		sop := packedToScalar(in.Op)
		var out [2]uint64
		for lane := 0; lane < 2; lane++ {
			cr := r.altCompare(dst[lane], src[lane])
			if predicateHolds(sop, cr) {
				out[lane] = ^uint64(0)
			}
		}
		uc.CPU.XMM[in.RegOp.Reg] = out
		return emOK, nil

	case classCvtToInt:
		r.charge(telemetry.Bind, r.Costs.BindArith)
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return emOK, err
		}
		if !first && !r.Cfg.EmulateAll && !r.boxedLive(srcBits) {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
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
		return emOK, nil

	case classCvtFromInt:
		// Integer sources are never NaN-boxed; only warranted as the
		// faulting instruction (inexact int->double conversion).
		if !first && !r.Cfg.EmulateAll {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Bind, r.Costs.BindArith)
		v, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return emOK, err
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
		val, cost := r.Cfg.Alt.Promote(float64(int64(v)))
		r.Promotions++
		r.charge(telemetry.Altmath, cost)
		uc.CPU.XMM[in.RegOp.Reg][0] = r.box(val)
		return emOK, nil

	case classRound:
		r.charge(telemetry.Bind, r.Costs.BindArith)
		srcBits, err := r.readOperand(uc, in, in.RMOp, 8)
		if err != nil {
			return emOK, err
		}
		if !first && !r.Cfg.EmulateAll && !r.boxedLive(srcBits) {
			return emNotWarranted, nil
		}
		r.charge(telemetry.Emul, r.Costs.EmulArith)
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
		val, cost := r.Cfg.Alt.Promote(rv)
		r.Promotions++
		r.charge(telemetry.Altmath, cost)
		uc.CPU.XMM[in.RegOp.Reg][0] = r.box(val)
		return emOK, nil
	}
	return emOK, fmt.Errorf("fpvm: emulateInst on unsupported op %s", in.Op)
}

const (
	flagCF         = uint64(1) << 0
	flagPF         = uint64(1) << 2
	flagZF         = uint64(1) << 6
	flagSF         = uint64(1) << 7
	flagOF         = uint64(1) << 11
	machine64Flags = flagCF | flagPF | flagZF | flagSF | flagOF
)

// altScalar runs one scalar operation through the alternative system and
// returns the bits to store (boxed, or an application-visible NaN for
// real NaNs from ordinary operands, §2.3).
func (r *Runtime) altScalar(op isa.Op, dstBits, srcBits uint64) uint64 {
	for r.checkFault(faultinject.SiteAltOp, r.curRIP) {
		if !r.retryFault(faultinject.SiteAltOp) {
			// Alt-system failure: demote the operands and re-run the
			// operation as native IEEE — the ladder's degradable rung.
			r.degradeFault(faultinject.SiteAltOp)
			return r.nativeScalar(op, dstBits, srcBits)
		}
	}
	fop := scalarToFPOp(op)
	var a, b alt.Value
	var aBoxed, bBoxed bool
	if fop == fpmath.OpSqrt {
		a, aBoxed = r.resolve(srcBits)
	} else {
		a, aBoxed = r.resolve(dstBits)
		b, bBoxed = r.resolve(srcBits)
	}
	res, cost := r.Cfg.Alt.Op(fop, a, b)
	r.charge(telemetry.Altmath, cost)
	if r.Cfg.Alt.IsNaN(res) && !aBoxed && !bBoxed {
		// Ordinary operands produced a real NaN: the result must be an
		// application-visible NaN, not one of our boxes (§2.3).
		return nativeBits(fop, dstBits, srcBits)
	}
	return r.box(res)
}

// nativeBits is the bits x64 hardware produces for fop on raw operand
// bits (b ignored for sqrt): it propagates (quieted) input NaN payloads,
// and 0/0-style invalids yield the canonical NaN. fpmath.EvalValue
// implements precisely that.
func nativeBits(fop fpmath.Op, dstBits, srcBits uint64) uint64 {
	if fop == fpmath.OpSqrt {
		return fpmath.Bits(fpmath.EvalValue(fop, f64(srcBits), 0))
	}
	return fpmath.Bits(fpmath.EvalValue(fop, f64(dstBits), f64(srcBits)))
}

// nativeScalar is the degraded arithmetic path: demote the operands and
// compute with exact native IEEE semantics; the result is plain bits,
// never boxed.
func (r *Runtime) nativeScalar(op isa.Op, dstBits, srcBits uint64) uint64 {
	return r.nativeScalarOp(scalarToFPOp(op), dstBits, srcBits)
}

// nativeScalarOp is nativeScalar with the fpmath op already mapped (a
// scalar-arithmetic step maps it once, at decode).
func (r *Runtime) nativeScalarOp(fop fpmath.Op, dstBits, srcBits uint64) uint64 {
	if fop == fpmath.OpSqrt {
		return nativeBits(fop, 0, r.demote(srcBits))
	}
	return nativeBits(fop, r.demote(dstBits), r.demote(srcBits))
}

// altCompare compares two lanes through the alternative system.
func (r *Runtime) altCompare(aBits, bBits uint64) fpmath.CompareResult {
	for r.checkFault(faultinject.SiteAltOp, r.curRIP) {
		if !r.retryFault(faultinject.SiteAltOp) {
			// Degrade: compare the demoted operands natively.
			r.degradeFault(faultinject.SiteAltOp)
			return fpmath.Compare(f64(r.demote(aBits)), f64(r.demote(bBits)), false)
		}
	}
	a, _ := r.resolve(aBits)
	b, _ := r.resolve(bBits)
	cr, cost := r.Cfg.Alt.Compare(a, b)
	r.charge(telemetry.Altmath, cost)
	return cr
}

func scalarToFPOp(op isa.Op) fpmath.Op {
	switch op {
	case isa.ADDSD:
		return fpmath.OpAdd
	case isa.SUBSD:
		return fpmath.OpSub
	case isa.MULSD:
		return fpmath.OpMul
	case isa.DIVSD:
		return fpmath.OpDiv
	case isa.SQRTSD:
		return fpmath.OpSqrt
	case isa.MINSD:
		return fpmath.OpMin
	case isa.MAXSD:
		return fpmath.OpMax
	}
	return fpmath.OpAdd
}

func packedToScalar(op isa.Op) isa.Op {
	switch op {
	case isa.ADDPD:
		return isa.ADDSD
	case isa.SUBPD:
		return isa.SUBSD
	case isa.MULPD:
		return isa.MULSD
	case isa.DIVPD:
		return isa.DIVSD
	case isa.SQRTPD:
		return isa.SQRTSD
	case isa.MINPD:
		return isa.MINSD
	case isa.MAXPD:
		return isa.MAXSD
	case isa.CMPEQPD:
		return isa.CMPEQSD
	case isa.CMPLTPD:
		return isa.CMPLTSD
	case isa.CMPLEPD:
		return isa.CMPLESD
	case isa.CMPNEQPD:
		return isa.CMPNEQSD
	}
	return op
}

// predicateHolds evaluates a cmpxx predicate against a comparison result.
func predicateHolds(op isa.Op, cr fpmath.CompareResult) bool {
	u := cr.Unordered
	switch op {
	case isa.CMPEQSD:
		return !u && cr.Equal
	case isa.CMPLTSD:
		return !u && cr.Less
	case isa.CMPLESD:
		return !u && (cr.Less || cr.Equal)
	case isa.CMPUNORDSD:
		return u
	case isa.CMPNEQSD:
		return u || !cr.Equal
	case isa.CMPNLTSD:
		return u || !cr.Less
	case isa.CMPNLESD:
		return u || !(cr.Less || cr.Equal)
	case isa.CMPORDSD:
		return !u
	}
	return false
}

// hwEscapeDemote mirrors the future-work hardware box-escape check for
// loads FPVM emulates itself: a virtual machine must virtualize the
// virtualization extension too. When the emulated integer load's 8-byte
// block holds a live box, demote it in place before the read.
func (r *Runtime) hwEscapeDemote(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand) error {
	if !r.Cfg.FutureHW || o.Kind != isa.KindMem {
		return nil
	}
	block := r.ea(uc, in, o) &^ 7
	bits, err := r.m.Mem.ReadUint64(block)
	if err != nil || !r.boxedLive(bits) {
		return err
	}
	r.Tel.CorrEvents++
	r.charge(telemetry.Corr, r.Costs.CorrHandler/2)
	return r.m.Mem.WriteUint64(block, r.demoteTo(bits, telemetry.Corr))
}

// emulateMove transports data (possibly NaN-boxed bit patterns) without
// touching the alternative system: the 8-, 16- and 32-bit moves and the
// 128-bit memory moves. The 64-bit and XMM transport ops have their own
// steps (compileMove).
func (r *Runtime) emulateMove(uc *kernel.Ucontext, in *isa.Inst) error {
	cpu := &uc.CPU
	// Integer loads get the hardware escape treatment under FutureHW.
	switch in.Op {
	case isa.MOV32RM, isa.MOV16RM, isa.MOV8RM,
		isa.MOVZX8, isa.MOVZX16, isa.MOVSX8, isa.MOVSX16, isa.MOVSXD:
		if err := r.hwEscapeDemote(uc, in, in.RMOp); err != nil {
			return err
		}
	}
	switch in.Op {
	case isa.MOV32RR, isa.MOV32RM:
		v, err := r.readOperand(uc, in, in.RMOp, 4)
		if err != nil {
			return err
		}
		cpu.GPR[in.RegOp.Reg] = uint64(uint32(v))
	case isa.MOV32MR:
		return r.writeOperandOrGPR(uc, in, in.RMOp, 4, uint64(uint32(cpu.GPR[in.RegOp.Reg])))
	case isa.MOV32RI:
		return r.writeOperandOrGPR(uc, in, in.RMOp, 4, uint64(uint32(in.Imm)))
	case isa.MOV16RM, isa.MOVZX16:
		v, err := r.readOperand(uc, in, in.RMOp, 2)
		if err != nil {
			return err
		}
		cpu.GPR[in.RegOp.Reg] = uint64(uint16(v))
	case isa.MOV16MR:
		return r.writeOperandOrGPR(uc, in, in.RMOp, 2, uint64(uint16(cpu.GPR[in.RegOp.Reg])))
	case isa.MOV8RM, isa.MOVZX8:
		v, err := r.readOperand(uc, in, in.RMOp, 1)
		if err != nil {
			return err
		}
		cpu.GPR[in.RegOp.Reg] = uint64(uint8(v))
	case isa.MOV8MR:
		return r.writeOperandOrGPR(uc, in, in.RMOp, 1, uint64(uint8(cpu.GPR[in.RegOp.Reg])))
	case isa.MOVSX8:
		v, err := r.readOperand(uc, in, in.RMOp, 1)
		if err != nil {
			return err
		}
		cpu.GPR[in.RegOp.Reg] = uint64(int64(int8(v)))
	case isa.MOVSX16:
		v, err := r.readOperand(uc, in, in.RMOp, 2)
		if err != nil {
			return err
		}
		cpu.GPR[in.RegOp.Reg] = uint64(int64(int16(v)))
	case isa.MOVSXD:
		v, err := r.readOperand(uc, in, in.RMOp, 4)
		if err != nil {
			return err
		}
		cpu.GPR[in.RegOp.Reg] = uint64(int64(int32(v)))

	case isa.MOVAPDXM, isa.MOVUPDXM, isa.MOVDQAXM, isa.MOVDQUXM:
		v, err := r.read128(uc, in, in.RMOp)
		if err != nil {
			return err
		}
		cpu.XMM[in.RegOp.Reg] = v
	case isa.MOVAPDMX, isa.MOVUPDMX, isa.MOVDQAMX, isa.MOVDQUMX:
		return r.write128(uc, in, in.RMOp, cpu.XMM[in.RegOp.Reg])
	default:
		return fmt.Errorf("fpvm: emulateMove on %s", in.Op)
	}
	return nil
}

// writeOperandOrGPR writes v to a GPR or memory r/m destination.
func (r *Runtime) writeOperandOrGPR(uc *kernel.Ucontext, in *isa.Inst, o isa.Operand, size int, v uint64) error {
	if o.Kind == isa.KindGPR {
		if size == 4 {
			uc.CPU.GPR[o.Reg] = uint64(uint32(v))
		} else {
			uc.CPU.GPR[o.Reg] = v
		}
		return nil
	}
	return r.writeOperandMem(uc, in, o, size, v)
}
