package machine

import (
	"math"
	"math/bits"

	"fpvm/internal/fpmath"
	"fpvm/internal/isa"
)

// exactInt64 reports whether v converts to float64 without rounding
// (at most 53 significant bits).
func exactInt64(v int64) bool {
	if v == 0 {
		return true
	}
	u := uint64(v)
	if v < 0 {
		u = uint64(-v) // MinInt64 wraps to 2^63, a power of two: exact
	}
	sig := 64 - bits.LeadingZeros64(u) - bits.TrailingZeros64(u)
	return sig <= 53
}

// execute runs one decoded instruction and returns the event it raised,
// if any. Faulting FP instructions leave RIP and the destination
// untouched (x64 fault semantics); int3 and syscall advance RIP before
// reporting (trap semantics).
func (m *Machine) execute(in *isa.Inst) EventKind {
	op := in.Op
	next := in.Addr + uint64(in.Len)

	// FP arithmetic goes through the exception-precise path.
	if op.IsFPArith() || op.IsCvt() {
		return m.executeFP(in, next)
	}

	switch op {
	case isa.NOP:

	case isa.HLT:
		m.retire(in, next)
		return m.raise(EvHalt)

	case isa.INT3:
		m.retire(in, next)
		return m.raise(EvBreakpoint)

	case isa.SYSCALL:
		m.retire(in, next)
		return m.raise(EvSyscall)

	case isa.RET:
		target, err := m.pop()
		if err != nil {
			return m.fault(err)
		}
		m.retire(in, target)
		return m.jumped(target)

	case isa.CALL, isa.CALLR:
		var target uint64
		if op == isa.CALL {
			target = in.BranchTarget()
		} else {
			v, err := m.readRM(in, in.RMOp, false)
			if err != nil {
				return m.fault(err)
			}
			target = v
		}
		if err := m.push(next); err != nil {
			return m.fault(err)
		}
		m.retire(in, target)
		return m.jumped(target)

	case isa.JMP:
		m.retire(in, in.BranchTarget())
		return EvNone

	case isa.JMPR:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		m.retire(in, v)
		return m.jumped(v)

	case isa.JE, isa.JNE, isa.JL, isa.JLE, isa.JG, isa.JGE,
		isa.JB, isa.JBE, isa.JA, isa.JAE, isa.JS, isa.JNS, isa.JP, isa.JNP:
		if m.condition(op) {
			m.retire(in, in.BranchTarget())
		} else {
			m.retire(in, next)
		}
		return EvNone

	default:
		return m.executeData(in, next)
	}

	m.retire(in, next)
	return EvNone
}

// retire commits an instruction: advances RIP, charges latency, counts.
func (m *Machine) retire(in *isa.Inst, nextRIP uint64) {
	m.CPU.RIP = nextRIP
	m.Cycles += in.Op.Latency()
	m.Instructions++
}

// writeRM writes v to the r/m operand o of in with the given memory
// width, reporting stores to the tracer.
func (m *Machine) writeRM(in *isa.Inst, o isa.Operand, v uint64, size int, xmm, fpTyped bool) error {
	if o.Kind == isa.KindMem {
		addr := m.effectiveAddr(in, o)
		if err := m.writeMem(addr, size, v); err != nil {
			return err
		}
		if m.Tracer != nil {
			m.Tracer.OnStore(in.Addr, addr, size, xmm, fpTyped)
		}
		return nil
	}
	if o.Kind == isa.KindXMM {
		m.CPU.XMM[o.Reg][0] = v
		return nil
	}
	m.CPU.GPR[o.Reg] = v
	return nil
}

// executeData handles moves and integer ALU.
func (m *Machine) executeData(in *isa.Inst, next uint64) EventKind {
	op := in.Op
	cpu := &m.CPU

	switch op {
	// ----- GPR moves -----
	case isa.MOV64RR, isa.MOV64RM:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = v
	case isa.MOV64MR:
		if err := m.writeRM(in, in.RMOp, cpu.GPR[in.RegOp.Reg], 8, false, false); err != nil {
			return m.fault(err)
		}
	case isa.MOV64RI:
		if err := m.writeRM(in, in.RMOp, uint64(in.Imm), 8, false, false); err != nil {
			return m.fault(err)
		}
	case isa.MOV32RR, isa.MOV32RM:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = uint64(uint32(v))
	case isa.MOV32MR:
		if err := m.writeRM(in, in.RMOp, uint64(uint32(cpu.GPR[in.RegOp.Reg])), 4, false, false); err != nil {
			return m.fault(err)
		}
	case isa.MOV32RI:
		if err := m.writeRM(in, in.RMOp, uint64(uint32(in.Imm)), 4, false, false); err != nil {
			return m.fault(err)
		}
	case isa.MOV16RM, isa.MOVZX16:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = uint64(uint16(v))
	case isa.MOV16MR:
		if err := m.writeRM(in, in.RMOp, uint64(uint16(cpu.GPR[in.RegOp.Reg])), 2, false, false); err != nil {
			return m.fault(err)
		}
	case isa.MOV8RM, isa.MOVZX8:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = uint64(uint8(v))
	case isa.MOV8MR:
		if err := m.writeRM(in, in.RMOp, uint64(uint8(cpu.GPR[in.RegOp.Reg])), 1, false, false); err != nil {
			return m.fault(err)
		}
	case isa.MOVSX8:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = uint64(int64(int8(v)))
	case isa.MOVSX16:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = uint64(int64(int16(v)))
	case isa.MOVSXD:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		cpu.GPR[in.RegOp.Reg] = uint64(int64(int32(v)))
	case isa.LEA:
		cpu.GPR[in.RegOp.Reg] = m.effectiveAddr(in, in.RMOp)
	case isa.PUSH:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		if err := m.push(v); err != nil {
			return m.fault(err)
		}
	case isa.POP:
		v, err := m.pop()
		if err != nil {
			return m.fault(err)
		}
		if err := m.writeRM(in, in.RMOp, v, 8, false, false); err != nil {
			return m.fault(err)
		}
	case isa.XCHG64:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		old := cpu.GPR[in.RegOp.Reg]
		cpu.GPR[in.RegOp.Reg] = v
		if err := m.writeRM(in, in.RMOp, old, 8, false, false); err != nil {
			return m.fault(err)
		}

	// ----- Integer ALU, reg ← reg OP r/m -----
	case isa.ADD64, isa.SUB64, isa.IMUL64, isa.AND64, isa.OR64, isa.XOR64, isa.CMP64, isa.TEST64:
		b, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		a := cpu.GPR[in.RegOp.Reg]
		switch op {
		case isa.ADD64:
			res := a + b
			m.setAddFlags(a, b, res)
			cpu.GPR[in.RegOp.Reg] = res
		case isa.SUB64:
			res := a - b
			m.setSubFlags(a, b, res)
			cpu.GPR[in.RegOp.Reg] = res
		case isa.IMUL64:
			res := uint64(int64(a) * int64(b))
			m.setIntFlags(res)
			cpu.GPR[in.RegOp.Reg] = res
		case isa.AND64:
			res := a & b
			m.setLogicFlags(res)
			cpu.GPR[in.RegOp.Reg] = res
		case isa.OR64:
			res := a | b
			m.setLogicFlags(res)
			cpu.GPR[in.RegOp.Reg] = res
		case isa.XOR64:
			res := a ^ b
			m.setLogicFlags(res)
			cpu.GPR[in.RegOp.Reg] = res
		case isa.CMP64:
			m.setSubFlags(a, b, a-b)
		case isa.TEST64:
			m.setLogicFlags(a & b)
		}

	// ----- Integer ALU, r/m ← r/m OP imm -----
	case isa.ADD64I, isa.SUB64I, isa.CMP64I, isa.AND64I, isa.OR64I, isa.XOR64I:
		a, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		b := uint64(in.Imm)
		var res uint64
		write := true
		switch op {
		case isa.ADD64I:
			res = a + b
			m.setAddFlags(a, b, res)
		case isa.SUB64I:
			res = a - b
			m.setSubFlags(a, b, res)
		case isa.CMP64I:
			m.setSubFlags(a, b, a-b)
			write = false
		case isa.AND64I:
			res = a & b
			m.setLogicFlags(res)
		case isa.OR64I:
			res = a | b
			m.setLogicFlags(res)
		case isa.XOR64I:
			res = a ^ b
			m.setLogicFlags(res)
		}
		if write {
			if err := m.writeRM(in, in.RMOp, res, 8, false, false); err != nil {
				return m.fault(err)
			}
		}
	case isa.IMUL64I:
		b, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		res := uint64(int64(b) * in.Imm)
		m.setIntFlags(res)
		cpu.GPR[in.RegOp.Reg] = res

	// ----- Shifts -----
	case isa.SHL64I, isa.SHR64I, isa.SAR64I, isa.SHL64CL, isa.SHR64CL, isa.SAR64CL:
		a, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		var amt uint64
		switch op {
		case isa.SHL64CL, isa.SHR64CL, isa.SAR64CL:
			amt = cpu.GPR[isa.RCX] & 63
		default:
			amt = uint64(in.Imm) & 63
		}
		var res uint64
		switch op {
		case isa.SHL64I, isa.SHL64CL:
			res = a << amt
		case isa.SHR64I, isa.SHR64CL:
			res = a >> amt
		case isa.SAR64I, isa.SAR64CL:
			res = uint64(int64(a) >> amt)
		}
		m.setIntFlags(res)
		if err := m.writeRM(in, in.RMOp, res, 8, false, false); err != nil {
			return m.fault(err)
		}

	// ----- Integer unary -----
	case isa.INC64, isa.DEC64, isa.NEG64, isa.NOT64:
		a, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		var res uint64
		switch op {
		case isa.INC64:
			res = a + 1
			cf := m.CPU.RFLAGS & FlagCF // inc preserves CF
			m.setAddFlags(a, 1, res)
			m.CPU.RFLAGS = m.CPU.RFLAGS&^FlagCF | cf
		case isa.DEC64:
			res = a - 1
			cf := m.CPU.RFLAGS & FlagCF
			m.setSubFlags(a, 1, res)
			m.CPU.RFLAGS = m.CPU.RFLAGS&^FlagCF | cf
		case isa.NEG64:
			res = -a
			m.setSubFlags(0, a, res)
		case isa.NOT64:
			res = ^a
		}
		if err := m.writeRM(in, in.RMOp, res, 8, false, false); err != nil {
			return m.fault(err)
		}

	default:
		return m.executeXMMMove(in, next)
	}

	m.retire(in, next)
	return EvNone
}

// readXMM128 reads the full 128-bit r/m operand.
func (m *Machine) readXMM128(in *isa.Inst, o isa.Operand) ([2]uint64, error) {
	if o.Kind == isa.KindMem {
		addr := m.effectiveAddr(in, o)
		lo, err := m.Mem.ReadUint64(addr)
		if err != nil {
			return [2]uint64{}, err
		}
		hi, err := m.Mem.ReadUint64(addr + 8)
		if err != nil {
			return [2]uint64{}, err
		}
		if m.Tracer != nil {
			m.Tracer.OnLoad(in.Addr, addr, 16, true)
		}
		return [2]uint64{lo, hi}, nil
	}
	return m.CPU.XMM[o.Reg], nil
}

// writeXMM128 writes the full 128-bit r/m operand.
func (m *Machine) writeXMM128(in *isa.Inst, o isa.Operand, v [2]uint64, fpTyped bool) error {
	if o.Kind == isa.KindMem {
		addr := m.effectiveAddr(in, o)
		if err := m.Mem.WriteUint64(addr, v[0]); err != nil {
			return err
		}
		if err := m.Mem.WriteUint64(addr+8, v[1]); err != nil {
			return err
		}
		if m.Tracer != nil {
			m.Tracer.OnStore(in.Addr, addr, 16, true, fpTyped)
		}
		return nil
	}
	m.CPU.XMM[o.Reg] = v
	return nil
}

// executeXMMMove handles all XMM move/shuffle/logical forms.
func (m *Machine) executeXMMMove(in *isa.Inst, next uint64) EventKind {
	op := in.Op
	cpu := &m.CPU

	switch op {
	case isa.MOVSDXX:
		// movsd xmm, xmm merges the low lane only.
		cpu.XMM[in.RegOp.Reg][0] = cpu.XMM[in.RMOp.Reg][0]
	case isa.MOVSDXM, isa.MOVQXM:
		v, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		cpu.XMM[in.RegOp.Reg] = [2]uint64{v, 0}
	case isa.MOVSDMX:
		if err := m.writeRM(in, in.RMOp, cpu.XMM[in.RegOp.Reg][0], 8, true, true); err != nil {
			return m.fault(err)
		}
	case isa.MOVQMX:
		// movq store is integer-typed: the profiler must not mark it.
		if err := m.writeRM(in, in.RMOp, cpu.XMM[in.RegOp.Reg][0], 8, true, false); err != nil {
			return m.fault(err)
		}
	case isa.MOVAPDXX, isa.MOVDQAXX:
		cpu.XMM[in.RegOp.Reg] = cpu.XMM[in.RMOp.Reg]
	case isa.MOVAPDXM, isa.MOVUPDXM:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		cpu.XMM[in.RegOp.Reg] = v
	case isa.MOVDQAXM, isa.MOVDQUXM:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		cpu.XMM[in.RegOp.Reg] = v
	case isa.MOVAPDMX, isa.MOVUPDMX:
		if err := m.writeXMM128(in, in.RMOp, cpu.XMM[in.RegOp.Reg], true); err != nil {
			return m.fault(err)
		}
	case isa.MOVDQAMX, isa.MOVDQUMX:
		if err := m.writeXMM128(in, in.RMOp, cpu.XMM[in.RegOp.Reg], false); err != nil {
			return m.fault(err)
		}
	case isa.MOVQXG:
		cpu.XMM[in.RegOp.Reg] = [2]uint64{cpu.GPR[in.RMOp.Reg], 0}
	case isa.MOVQGX:
		cpu.GPR[in.RegOp.Reg] = cpu.XMM[in.RMOp.Reg][0]
	case isa.MOVDXG:
		cpu.XMM[in.RegOp.Reg] = [2]uint64{uint64(uint32(cpu.GPR[in.RMOp.Reg])), 0}
	case isa.MOVDGX:
		cpu.GPR[in.RegOp.Reg] = uint64(uint32(cpu.XMM[in.RMOp.Reg][0]))
	case isa.MOVHPDXM:
		v, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		cpu.XMM[in.RegOp.Reg][1] = v
	case isa.MOVHPDMX:
		if err := m.writeRM(in, in.RMOp, cpu.XMM[in.RegOp.Reg][1], 8, true, true); err != nil {
			return m.fault(err)
		}
	case isa.MOVLPDXM:
		v, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		cpu.XMM[in.RegOp.Reg][0] = v
	case isa.MOVLPDMX:
		if err := m.writeRM(in, in.RMOp, cpu.XMM[in.RegOp.Reg][0], 8, true, true); err != nil {
			return m.fault(err)
		}
	case isa.MOVDDUP:
		v, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		cpu.XMM[in.RegOp.Reg] = [2]uint64{v, v}
	case isa.UNPCKLPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		*d = [2]uint64{d[0], v[0]}
	case isa.UNPCKHPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		*d = [2]uint64{d[1], v[1]}
	case isa.SHUFPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		var lo, hi uint64
		if in.Imm&1 == 0 {
			lo = d[0]
		} else {
			lo = d[1]
		}
		if in.Imm&2 == 0 {
			hi = v[0]
		} else {
			hi = v[1]
		}
		*d = [2]uint64{lo, hi}
	case isa.PXOR, isa.XORPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		*d = [2]uint64{d[0] ^ v[0], d[1] ^ v[1]}
	case isa.ANDPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		*d = [2]uint64{d[0] & v[0], d[1] & v[1]}
	case isa.ORPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		*d = [2]uint64{d[0] | v[0], d[1] | v[1]}
	case isa.ANDNPD:
		v, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		d := &cpu.XMM[in.RegOp.Reg]
		*d = [2]uint64{^d[0] & v[0], ^d[1] & v[1]}
	default:
		return m.fault(&isa.DecodeError{Addr: in.Addr, Msg: "unimplemented opcode " + op.String()})
	}

	m.retire(in, next)
	return EvNone
}

// executeFP handles SSE arithmetic/compare/convert with precise exception
// semantics: compute, collect IEEE flags, and if any unmasked exception is
// raised, set the MXCSR status bits and fault without writing the
// destination or advancing RIP.
func (m *Machine) executeFP(in *isa.Inst, next uint64) EventKind {
	op := in.Op
	cpu := &m.CPU

	switch {
	case op == isa.CVTSI2SD:
		v, err := m.readRM(in, in.RMOp, false)
		if err != nil {
			return m.fault(err)
		}
		iv := int64(v)
		f := float64(iv)
		var flags uint32
		if !exactInt64(iv) {
			flags |= fpmath.ExPrecision
		}
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		cpu.XMM[in.RegOp.Reg][0] = fpmath.Bits(f)
		return m.retireFP(in, next)

	case op == isa.CVTSD2SI || op == isa.CVTTSD2SI:
		v, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		f := fpmath.FromBits(v)
		var flags uint32
		var res int64
		switch {
		case fpmath.IsNaNBits(v) || f >= 0x1p63 || f < -0x1p63:
			flags |= fpmath.ExInvalid
			res = math.MinInt64
		default:
			var r float64
			if op == isa.CVTTSD2SI {
				r = math.Trunc(f)
			} else {
				r = math.RoundToEven(f)
			}
			res = int64(r)
			if r != f {
				flags |= fpmath.ExPrecision
			}
		}
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		cpu.GPR[in.RegOp.Reg] = uint64(res)
		return m.retireFP(in, next)

	case op == isa.ROUNDSD:
		v, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		f := fpmath.FromBits(v)
		var flags uint32
		var r float64
		if fpmath.IsNaNBits(v) {
			if fpmath.IsSignalingNaNBits(v) {
				flags |= fpmath.ExInvalid
			}
			r = fpmath.FromBits(v | fpmath.QuietBit)
		} else {
			switch in.Imm & 3 {
			case 0:
				r = math.RoundToEven(f)
			case 1:
				r = math.Floor(f)
			case 2:
				r = math.Ceil(f)
			default:
				r = math.Trunc(f)
			}
			if r != f && in.Imm&8 == 0 {
				flags |= fpmath.ExPrecision
			}
		}
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		cpu.XMM[in.RegOp.Reg][0] = fpmath.Bits(r)
		return m.retireFP(in, next)

	case op == isa.UCOMISD || op == isa.COMISD:
		bv, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		a := fpmath.FromBits(cpu.XMM[in.RegOp.Reg][0])
		b := fpmath.FromBits(bv)
		cr := fpmath.Compare(a, b, op == isa.COMISD)
		if m.fpTrap(cr.Flags) {
			return EvFPTrap
		}
		f := cpu.RFLAGS &^ (FlagZF | FlagPF | FlagCF | FlagOF | FlagSF)
		switch {
		case cr.Unordered:
			f |= FlagZF | FlagPF | FlagCF
		case cr.Less:
			f |= FlagCF
		case cr.Equal:
			f |= FlagZF
		}
		cpu.RFLAGS = f
		return m.retireFP(in, next)

	case op.IsCmpPredicate() && op.IsFPScalar():
		bv, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		av := cpu.XMM[in.RegOp.Reg][0]
		mask, flags := cmpPredicate(op, av, bv)
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		cpu.XMM[in.RegOp.Reg][0] = mask
		return m.retireFP(in, next)

	case op.IsCmpPredicate() && op.IsFPPacked():
		bv, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		av := cpu.XMM[in.RegOp.Reg]
		m0, f0 := cmpPredicate(packedToScalarCmp(op), av[0], bv[0])
		m1, f1 := cmpPredicate(packedToScalarCmp(op), av[1], bv[1])
		if m.fpTrap(f0 | f1) {
			return EvFPTrap
		}
		cpu.XMM[in.RegOp.Reg] = [2]uint64{m0, m1}
		return m.retireFP(in, next)

	case op.IsFPScalar():
		// addsd/subsd/mulsd/divsd/sqrtsd/minsd/maxsd
		bv, err := m.readRM(in, in.RMOp, true)
		if err != nil {
			return m.fault(err)
		}
		var a, b float64
		if op == isa.SQRTSD {
			a = fpmath.FromBits(bv)
		} else {
			a = fpmath.FromBits(cpu.XMM[in.RegOp.Reg][0])
			b = fpmath.FromBits(bv)
		}
		res := fpmath.Eval(scalarFPOp(op), a, b)
		if m.fpTrap(res.Flags) {
			return EvFPTrap
		}
		cpu.XMM[in.RegOp.Reg][0] = fpmath.Bits(res.Value)
		return m.retireFP(in, next)

	case op.IsFPPacked():
		bv, err := m.readXMM128(in, in.RMOp)
		if err != nil {
			return m.fault(err)
		}
		av := cpu.XMM[in.RegOp.Reg]
		fop := packedFPOp(op)
		var r0, r1 fpmath.Result
		if op == isa.SQRTPD {
			r0 = fpmath.Eval(fop, fpmath.FromBits(bv[0]), 0)
			r1 = fpmath.Eval(fop, fpmath.FromBits(bv[1]), 0)
		} else {
			r0 = fpmath.Eval(fop, fpmath.FromBits(av[0]), fpmath.FromBits(bv[0]))
			r1 = fpmath.Eval(fop, fpmath.FromBits(av[1]), fpmath.FromBits(bv[1]))
		}
		if m.fpTrap(r0.Flags | r1.Flags) {
			return EvFPTrap
		}
		cpu.XMM[in.RegOp.Reg] = [2]uint64{fpmath.Bits(r0.Value), fpmath.Bits(r1.Value)}
		return m.retireFP(in, next)
	}
	return m.fault(&isa.DecodeError{Addr: in.Addr, Msg: "unimplemented FP opcode " + op.String()})
}

// fpTrap folds an FP instruction's IEEE flags into the MXCSR status bits
// and reports whether any of them is unmasked, recording the #XF: the
// instruction then faults, its destination unwritten.
func (m *Machine) fpTrap(flags uint32) bool {
	raised := m.unmasked(flags)
	m.CPU.MXCSR |= flags & MXCSRStatusMask
	if raised == 0 {
		return false
	}
	m.event = Event{Kind: EvFPTrap, FPFlags: raised}
	return true
}

// retireFP commits an FP instruction whose destination is written.
func (m *Machine) retireFP(in *isa.Inst, next uint64) EventKind {
	m.retire(in, next)
	m.FPInstructions++
	return EvNone
}

func scalarFPOp(op isa.Op) fpmath.Op {
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

func packedFPOp(op isa.Op) fpmath.Op {
	switch op {
	case isa.ADDPD:
		return fpmath.OpAdd
	case isa.SUBPD:
		return fpmath.OpSub
	case isa.MULPD:
		return fpmath.OpMul
	case isa.DIVPD:
		return fpmath.OpDiv
	case isa.SQRTPD:
		return fpmath.OpSqrt
	case isa.MINPD:
		return fpmath.OpMin
	case isa.MAXPD:
		return fpmath.OpMax
	}
	return fpmath.OpAdd
}

func packedToScalarCmp(op isa.Op) isa.Op {
	switch op {
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

// cmpPredicate evaluates a cmpxxsd predicate over raw lane bits, returning
// the all-ones/all-zeros mask and the IEEE flags. The "signaling"
// predicates (lt, le, nlt, nle) raise Invalid on any NaN; eq/neq/ord/unord
// raise Invalid only on signaling NaNs.
func cmpPredicate(op isa.Op, av, bv uint64) (mask uint64, flags uint32) {
	a, b := fpmath.FromBits(av), fpmath.FromBits(bv)
	anan, bnan := fpmath.IsNaNBits(av), fpmath.IsNaNBits(bv)
	unordered := anan || bnan

	signaling := false
	switch op {
	case isa.CMPLTSD, isa.CMPLESD, isa.CMPNLTSD, isa.CMPNLESD:
		signaling = true
	}
	if fpmath.IsSignalingNaNBits(av) || fpmath.IsSignalingNaNBits(bv) || (unordered && signaling) {
		flags |= fpmath.ExInvalid
	}

	var t bool
	switch op {
	case isa.CMPEQSD:
		t = !unordered && a == b
	case isa.CMPLTSD:
		t = !unordered && a < b
	case isa.CMPLESD:
		t = !unordered && a <= b
	case isa.CMPUNORDSD:
		t = unordered
	case isa.CMPNEQSD:
		t = unordered || a != b
	case isa.CMPNLTSD:
		t = unordered || !(a < b)
	case isa.CMPNLESD:
		t = unordered || !(a <= b)
	case isa.CMPORDSD:
		t = !unordered
	}
	if t {
		mask = ^uint64(0)
	}
	return mask, flags
}
