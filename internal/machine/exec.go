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

// handler runs one decoded instruction and returns the event it raised,
// if any. Faulting FP instructions leave RIP and the destination
// untouched (x64 fault semantics); int3 and syscall advance RIP before
// reporting (trap semantics).
type handler func(m *Machine, d *decoded) EventKind

// decoded is one icache slot: an instruction, the handler chosen for it
// at decode time, and the opcode facts its handler reads on every step.
type decoded struct {
	isa.Inst
	exec handler
	lat  uint8 // Op.Latency()
	size uint8 // Op.MemBytes(): the memory width, 0 where none is named
}

func newDecoded(in isa.Inst) *decoded {
	d := &decoded{Inst: in, lat: uint8(in.Op.Latency()), size: uint8(in.Op.MemBytes())}
	rm := 0
	if in.RMOp.Kind == isa.KindMem {
		rm = 1
	}
	d.exec = handlers[in.Op][rm]
	return d
}

// handlers holds every opcode's handler for a register (or absent) r/m
// operand, [0], and for a memory one, [1]; decode picks one for each
// instruction, and nothing else dispatches on the opcode. Both entries
// are set even where the decoder refuses one form (a register r/m on a
// memory-only opcode, a memory r/m on a register-to-register move).
var handlers = [isa.NumOps][2]handler{
	isa.NOP:     both(func(m *Machine, d *decoded) EventKind { return m.done(d) }),
	isa.HLT:     trapAfter(EvHalt),
	isa.INT3:    trapAfter(EvBreakpoint),
	isa.SYSCALL: trapAfter(EvSyscall),
	isa.RET: both(func(m *Machine, d *decoded) EventKind {
		target, err := m.pop()
		if err != nil {
			return m.fault(err)
		}
		m.retire(d, target)
		return m.jumped(target)
	}),
	isa.CALL:  both(func(m *Machine, d *decoded) EventKind { return m.call(d, d.BranchTarget()) }),
	isa.CALLR: gprSrc((*Machine).call),
	isa.JMP: both(func(m *Machine, d *decoded) EventKind {
		m.retire(d, d.BranchTarget())
		return EvNone
	}),
	isa.JMPR: gprSrc(func(m *Machine, d *decoded, target uint64) EventKind {
		m.retire(d, target)
		return m.jumped(target)
	}),

	isa.JE:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagZF != 0) }),
	isa.JNE: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagZF == 0) }),
	isa.JL:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.less()) }),
	isa.JLE: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagZF != 0 || m.less()) }),
	isa.JG:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagZF == 0 && !m.less()) }),
	isa.JGE: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, !m.less()) }),
	isa.JB:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagCF != 0) }),
	isa.JBE: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&(FlagCF|FlagZF) != 0) }),
	isa.JA:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&(FlagCF|FlagZF) == 0) }),
	isa.JAE: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagCF == 0) }),
	isa.JS:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagSF != 0) }),
	isa.JNS: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagSF == 0) }),
	isa.JP:  both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagPF != 0) }),
	isa.JNP: both(func(m *Machine, d *decoded) EventKind { return m.branch(d, m.CPU.RFLAGS&FlagPF == 0) }),

	// ----- GPR moves -----
	isa.MOV64RR: {mov64RMReg, mov64RMMem},
	isa.MOV64RM: {mov64RMReg, mov64RMMem},
	isa.MOV64MR: {mov64MRReg, mov64MRMem},
	isa.MOV64RI: {mov64RIReg, gprDst(func(m *Machine, d *decoded) uint64 { return uint64(d.Imm) })[1]},
	isa.MOV32RR: gprSrc(setGPR(func(v uint64) uint64 { return uint64(uint32(v)) })),
	isa.MOV32RM: gprSrc(setGPR(func(v uint64) uint64 { return uint64(uint32(v)) })),
	isa.MOV32MR: gprDst(func(m *Machine, d *decoded) uint64 { return uint64(uint32(m.CPU.GPR[d.RegOp.Reg])) }),
	isa.MOV32RI: gprDst(func(m *Machine, d *decoded) uint64 { return uint64(uint32(d.Imm)) }),
	isa.MOV16RM: gprSrc(setGPR(func(v uint64) uint64 { return uint64(uint16(v)) })),
	isa.MOV16MR: gprDst(func(m *Machine, d *decoded) uint64 { return uint64(uint16(m.CPU.GPR[d.RegOp.Reg])) }),
	isa.MOV8RM:  gprSrc(setGPR(func(v uint64) uint64 { return uint64(uint8(v)) })),
	isa.MOV8MR:  gprDst(func(m *Machine, d *decoded) uint64 { return uint64(uint8(m.CPU.GPR[d.RegOp.Reg])) }),
	isa.MOVZX8:  gprSrc(setGPR(func(v uint64) uint64 { return uint64(uint8(v)) })),
	isa.MOVZX16: gprSrc(setGPR(func(v uint64) uint64 { return uint64(uint16(v)) })),
	isa.MOVSX8:  gprSrc(setGPR(func(v uint64) uint64 { return uint64(int64(int8(v))) })),
	isa.MOVSX16: gprSrc(setGPR(func(v uint64) uint64 { return uint64(int64(int16(v))) })),
	isa.MOVSXD:  gprSrc(setGPR(func(v uint64) uint64 { return uint64(int64(int32(v))) })),
	isa.LEA:     both(lea),
	isa.PUSH: gprSrc(func(m *Machine, d *decoded, v uint64) EventKind {
		if err := m.push(v); err != nil {
			return m.fault(err)
		}
		return m.done(d)
	}),
	// pop first: a memory destination's address sees the popped RSP.
	isa.POP: {
		func(m *Machine, d *decoded) EventKind {
			v, err := m.pop()
			if err != nil {
				return m.fault(err)
			}
			m.CPU.GPR[d.RMOp.Reg] = v
			return m.done(d)
		},
		func(m *Machine, d *decoded) EventKind {
			v, err := m.pop()
			if err != nil {
				return m.fault(err)
			}
			if err := m.store(d, v, false, false); err != nil {
				return m.fault(err)
			}
			return m.done(d)
		},
	},
	isa.XCHG64: gprRMW(func(m *Machine, d *decoded, v uint64) uint64 {
		old := m.CPU.GPR[d.RegOp.Reg]
		m.CPU.GPR[d.RegOp.Reg] = v
		return old
	}),

	// ----- Integer ALU, reg ← reg OP r/m -----
	isa.ADD64: {add64Reg, gprSrc((*Machine).add)[1]},
	isa.SUB64: gprSrc(func(m *Machine, d *decoded, b uint64) EventKind {
		a := m.CPU.GPR[d.RegOp.Reg]
		res := a - b
		m.setSubFlags(a, b, res)
		m.CPU.GPR[d.RegOp.Reg] = res
		return m.done(d)
	}),
	isa.IMUL64: gprSrc(func(m *Machine, d *decoded, b uint64) EventKind {
		res := uint64(int64(m.CPU.GPR[d.RegOp.Reg]) * int64(b))
		m.setIntFlags(res)
		m.CPU.GPR[d.RegOp.Reg] = res
		return m.done(d)
	}),
	isa.AND64: gprSrc(logic(func(a, b uint64) uint64 { return a & b })),
	isa.OR64:  gprSrc(logic(func(a, b uint64) uint64 { return a | b })),
	isa.XOR64: gprSrc(logic(func(a, b uint64) uint64 { return a ^ b })),
	isa.CMP64: {cmp64Reg, gprSrc((*Machine).cmp)[1]},
	isa.TEST64: gprSrc(func(m *Machine, d *decoded, b uint64) EventKind {
		m.setLogicFlags(m.CPU.GPR[d.RegOp.Reg] & b)
		return m.done(d)
	}),

	// ----- Integer ALU, r/m ← r/m OP imm -----
	isa.ADD64I: gprRMW(func(m *Machine, d *decoded, a uint64) uint64 {
		b := uint64(d.Imm)
		m.setAddFlags(a, b, a+b)
		return a + b
	}),
	isa.SUB64I: gprRMW(func(m *Machine, d *decoded, a uint64) uint64 {
		b := uint64(d.Imm)
		m.setSubFlags(a, b, a-b)
		return a - b
	}),
	isa.CMP64I: gprSrc(func(m *Machine, d *decoded, a uint64) EventKind {
		b := uint64(d.Imm)
		m.setSubFlags(a, b, a-b)
		return m.done(d)
	}),
	isa.AND64I: gprRMW(logicImm(func(a, b uint64) uint64 { return a & b })),
	isa.OR64I:  gprRMW(logicImm(func(a, b uint64) uint64 { return a | b })),
	isa.XOR64I: gprRMW(logicImm(func(a, b uint64) uint64 { return a ^ b })),
	isa.IMUL64I: gprSrc(func(m *Machine, d *decoded, b uint64) EventKind {
		res := uint64(int64(b) * d.Imm)
		m.setIntFlags(res)
		m.CPU.GPR[d.RegOp.Reg] = res
		return m.done(d)
	}),

	// ----- Shifts: by imm8 or by CL, modulo 64 -----
	isa.SHL64I:  gprRMW(shift(false, func(a, n uint64) uint64 { return a << n })),
	isa.SHR64I:  gprRMW(shift(false, func(a, n uint64) uint64 { return a >> n })),
	isa.SAR64I:  gprRMW(shift(false, func(a, n uint64) uint64 { return uint64(int64(a) >> n) })),
	isa.SHL64CL: gprRMW(shift(true, func(a, n uint64) uint64 { return a << n })),
	isa.SHR64CL: gprRMW(shift(true, func(a, n uint64) uint64 { return a >> n })),
	isa.SAR64CL: gprRMW(shift(true, func(a, n uint64) uint64 { return uint64(int64(a) >> n) })),

	// ----- Integer unary -----
	isa.INC64: gprRMW(func(m *Machine, d *decoded, a uint64) uint64 {
		cf := m.CPU.RFLAGS & FlagCF // inc preserves CF
		m.setAddFlags(a, 1, a+1)
		m.CPU.RFLAGS = m.CPU.RFLAGS&^FlagCF | cf
		return a + 1
	}),
	isa.DEC64: gprRMW(func(m *Machine, d *decoded, a uint64) uint64 {
		cf := m.CPU.RFLAGS & FlagCF
		m.setSubFlags(a, 1, a-1)
		m.CPU.RFLAGS = m.CPU.RFLAGS&^FlagCF | cf
		return a - 1
	}),
	isa.NEG64: gprRMW(func(m *Machine, d *decoded, a uint64) uint64 {
		m.setSubFlags(0, a, -a)
		return -a
	}),
	isa.NOT64: gprRMW(func(m *Machine, d *decoded, a uint64) uint64 { return ^a }), // flags unchanged

	// ----- Scalar double arithmetic and compares -----
	isa.ADDSD:   {addsdReg, xmmSrc(scalar(fpmath.OpAdd))[1]},
	isa.SUBSD:   {subsdReg, xmmSrc(scalar(fpmath.OpSub))[1]},
	isa.MULSD:   {mulsdReg, xmmSrc(scalar(fpmath.OpMul))[1]},
	isa.DIVSD:   xmmSrc(scalar(fpmath.OpDiv)),
	isa.SQRTSD:  xmmSrc(scalar(fpmath.OpSqrt)),
	isa.MINSD:   xmmSrc(scalar(fpmath.OpMin)),
	isa.MAXSD:   xmmSrc(scalar(fpmath.OpMax)),
	isa.UCOMISD: xmmSrc(comisd(false)),
	isa.COMISD:  xmmSrc(comisd(true)),

	isa.CMPEQSD:    xmmSrc(cmpsd(cmpEQ)),
	isa.CMPLTSD:    xmmSrc(cmpsd(cmpLT)),
	isa.CMPLESD:    xmmSrc(cmpsd(cmpLE)),
	isa.CMPUNORDSD: xmmSrc(cmpsd(cmpUNORD)),
	isa.CMPNEQSD:   xmmSrc(cmpsd(cmpNEQ)),
	isa.CMPNLTSD:   xmmSrc(cmpsd(cmpNLT)),
	isa.CMPNLESD:   xmmSrc(cmpsd(cmpNLE)),
	isa.CMPORDSD:   xmmSrc(cmpsd(cmpORD)),

	// ----- Packed double arithmetic and compares -----
	isa.ADDPD:    wideSrc(packed(fpmath.OpAdd)),
	isa.SUBPD:    wideSrc(packed(fpmath.OpSub)),
	isa.MULPD:    wideSrc(packed(fpmath.OpMul)),
	isa.DIVPD:    wideSrc(packed(fpmath.OpDiv)),
	isa.SQRTPD:   wideSrc(packed(fpmath.OpSqrt)),
	isa.MINPD:    wideSrc(packed(fpmath.OpMin)),
	isa.MAXPD:    wideSrc(packed(fpmath.OpMax)),
	isa.CMPEQPD:  wideSrc(cmppd(cmpEQ)),
	isa.CMPLTPD:  wideSrc(cmppd(cmpLT)),
	isa.CMPLEPD:  wideSrc(cmppd(cmpLE)),
	isa.CMPNEQPD: wideSrc(cmppd(cmpNEQ)),

	// ----- Conversions -----
	isa.CVTSI2SD: gprSrc(func(m *Machine, d *decoded, v uint64) EventKind {
		iv := int64(v)
		var flags uint32
		if !exactInt64(iv) {
			flags |= fpmath.ExPrecision
		}
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		m.CPU.XMM[d.RegOp.Reg][0] = fpmath.Bits(float64(iv))
		return m.retireFP(d)
	}),
	isa.CVTSD2SI:  xmmSrc(cvtsd2si(math.RoundToEven)),
	isa.CVTTSD2SI: xmmSrc(cvtsd2si(math.Trunc)),
	isa.ROUNDSD:   xmmSrc((*Machine).roundsd),

	// ----- XMM moves -----
	// movsd xmm, xmm merges the low lane only.
	isa.MOVSDXX: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.XMM[d.RegOp.Reg][0] = m.CPU.XMM[d.RMOp.Reg][0]
		return m.done(d)
	}),
	isa.MOVSDXM: both(movsdXM),
	isa.MOVSDMX: both(movsdMX),
	isa.MOVAPDXX: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.XMM[d.RegOp.Reg] = m.CPU.XMM[d.RMOp.Reg]
		return m.done(d)
	}),
	isa.MOVAPDXM: wideSrc(setXMM),
	isa.MOVAPDMX: wideDst(true),
	isa.MOVUPDXM: wideSrc(setXMM),
	isa.MOVUPDMX: wideDst(true),
	isa.MOVQXG: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.XMM[d.RegOp.Reg] = [2]uint64{m.CPU.GPR[d.RMOp.Reg], 0}
		return m.done(d)
	}),
	isa.MOVQGX: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.GPR[d.RegOp.Reg] = m.CPU.XMM[d.RMOp.Reg][0]
		return m.done(d)
	}),
	isa.MOVQXM: xmmSrc(func(m *Machine, d *decoded, v uint64) EventKind {
		m.CPU.XMM[d.RegOp.Reg] = [2]uint64{v, 0}
		return m.done(d)
	}),
	// movq store is integer-typed: the profiler must not mark it.
	isa.MOVQMX: xmmDst(0, false),
	isa.MOVDXG: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.XMM[d.RegOp.Reg] = [2]uint64{uint64(uint32(m.CPU.GPR[d.RMOp.Reg])), 0}
		return m.done(d)
	}),
	isa.MOVDGX: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.GPR[d.RegOp.Reg] = uint64(uint32(m.CPU.XMM[d.RMOp.Reg][0]))
		return m.done(d)
	}),
	isa.MOVHPDXM: xmmSrc(func(m *Machine, d *decoded, v uint64) EventKind {
		m.CPU.XMM[d.RegOp.Reg][1] = v
		return m.done(d)
	}),
	isa.MOVHPDMX: xmmDst(1, true),
	isa.MOVLPDXM: xmmSrc(func(m *Machine, d *decoded, v uint64) EventKind {
		m.CPU.XMM[d.RegOp.Reg][0] = v
		return m.done(d)
	}),
	isa.MOVLPDMX: xmmDst(0, true),
	isa.MOVDDUP: xmmSrc(func(m *Machine, d *decoded, v uint64) EventKind {
		m.CPU.XMM[d.RegOp.Reg] = [2]uint64{v, v}
		return m.done(d)
	}),
	isa.MOVDQAXX: both(func(m *Machine, d *decoded) EventKind {
		m.CPU.XMM[d.RegOp.Reg] = m.CPU.XMM[d.RMOp.Reg]
		return m.done(d)
	}),
	isa.MOVDQAXM: wideSrc(setXMM),
	isa.MOVDQAMX: wideDst(false),
	isa.MOVDQUXM: wideSrc(setXMM),
	isa.MOVDQUMX: wideDst(false),

	// ----- Shuffles and logicals -----
	isa.UNPCKLPD: wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{d[0], v[0]} })),
	isa.UNPCKHPD: wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{d[1], v[1]} })),
	isa.SHUFPD: wideSrc(lanes(func(d, v [2]uint64, imm int64) [2]uint64 {
		return [2]uint64{d[imm&1], v[imm>>1&1]}
	})),
	isa.PXOR:   wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{d[0] ^ v[0], d[1] ^ v[1]} })),
	isa.XORPD:  wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{d[0] ^ v[0], d[1] ^ v[1]} })),
	isa.ANDPD:  wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{d[0] & v[0], d[1] & v[1]} })),
	isa.ORPD:   wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{d[0] | v[0], d[1] | v[1]} })),
	isa.ANDNPD: wideSrc(lanes(func(d, v [2]uint64, _ int64) [2]uint64 { return [2]uint64{^d[0] & v[0], ^d[1] & v[1]} })),
}

func init() {
	for op := isa.Op(1); op < isa.NumOps; op++ {
		if h := handlers[op]; h[0] == nil || h[1] == nil {
			panic("machine: no handler for opcode " + op.String())
		}
	}
}

// next returns d's fall-through RIP.
func (d *decoded) next() uint64 { return d.Addr + uint64(d.Len) }

// retire commits an instruction: advances RIP, charges latency, counts.
func (m *Machine) retire(d *decoded, nextRIP uint64) {
	m.CPU.RIP = nextRIP
	m.Cycles += uint64(d.lat)
	m.Instructions++
}

// done retires d to its fall-through RIP.
func (m *Machine) done(d *decoded) EventKind {
	m.retire(d, d.next())
	return EvNone
}

// retireFP commits an FP instruction whose destination is written.
func (m *Machine) retireFP(d *decoded) EventKind {
	m.retire(d, d.next())
	m.FPInstructions++
	return EvNone
}

// both is the handler pair of an opcode whose r/m kind does not matter.
func both(h handler) [2]handler { return [2]handler{h, h} }

// trapAfter is the handler pair of hlt, int3 and syscall: they retire,
// then raise k.
func trapAfter(k EventKind) [2]handler {
	return both(func(m *Machine, d *decoded) EventKind {
		m.retire(d, d.next())
		return m.raise(k)
	})
}

// call pushes the return address and transfers to target.
func (m *Machine) call(d *decoded, target uint64) EventKind {
	if err := m.push(d.next()); err != nil {
		return m.fault(err)
	}
	m.retire(d, target)
	return m.jumped(target)
}

// branch retires a conditional branch: to its target when taken.
func (m *Machine) branch(d *decoded, taken bool) EventKind {
	if taken {
		m.retire(d, d.BranchTarget())
	} else {
		m.retire(d, d.next())
	}
	return EvNone
}

// less reports SF != OF: signed less-than after a compare.
func (m *Machine) less() bool {
	return (m.CPU.RFLAGS&FlagSF != 0) != (m.CPU.RFLAGS&FlagOF != 0)
}

// A source body runs an instruction on the value of its r/m operand.
type srcBody func(m *Machine, d *decoded, v uint64) EventKind

// gprSrc is the handler pair of an instruction that reads its r/m
// operand as a GPR or an integer load.
func gprSrc(body srcBody) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind { return body(m, d, m.CPU.GPR[d.RMOp.Reg]) },
		func(m *Machine, d *decoded) EventKind {
			v, err := m.load(d, false)
			if err != nil {
				return m.fault(err)
			}
			return body(m, d, v)
		},
	}
}

// xmmSrc is the handler pair of an instruction that reads its r/m
// operand as an XMM low lane or an XMM-typed load.
func xmmSrc(body srcBody) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind { return body(m, d, m.CPU.XMM[d.RMOp.Reg][0]) },
		func(m *Machine, d *decoded) EventKind {
			v, err := m.load(d, true)
			if err != nil {
				return m.fault(err)
			}
			return body(m, d, v)
		},
	}
}

// wideSrc is the handler pair of an instruction that reads its whole
// 128-bit r/m operand.
func wideSrc(body func(m *Machine, d *decoded, v [2]uint64) EventKind) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind { return body(m, d, m.CPU.XMM[d.RMOp.Reg]) },
		func(m *Machine, d *decoded) EventKind {
			v, err := m.load128(d)
			if err != nil {
				return m.fault(err)
			}
			return body(m, d, v)
		},
	}
}

// gprDst is the handler pair of an instruction that writes value to its
// r/m operand: the whole GPR, or an integer store of the opcode's width.
func gprDst(value func(m *Machine, d *decoded) uint64) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind {
			m.CPU.GPR[d.RMOp.Reg] = value(m, d)
			return m.done(d)
		},
		func(m *Machine, d *decoded) EventKind {
			if err := m.store(d, value(m, d), false, false); err != nil {
				return m.fault(err)
			}
			return m.done(d)
		},
	}
}

// xmmDst is the handler pair of a store of lane of the reg-field XMM
// register to the r/m operand (its low lane, when a register).
func xmmDst(lane int, fpTyped bool) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind {
			m.CPU.XMM[d.RMOp.Reg][0] = m.CPU.XMM[d.RegOp.Reg][lane]
			return m.done(d)
		},
		func(m *Machine, d *decoded) EventKind {
			if err := m.store(d, m.CPU.XMM[d.RegOp.Reg][lane], true, fpTyped); err != nil {
				return m.fault(err)
			}
			return m.done(d)
		},
	}
}

// wideDst is the handler pair of a 128-bit store of the reg-field XMM
// register to the r/m operand.
func wideDst(fpTyped bool) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind {
			m.CPU.XMM[d.RMOp.Reg] = m.CPU.XMM[d.RegOp.Reg]
			return m.done(d)
		},
		func(m *Machine, d *decoded) EventKind {
			if err := m.store128(d, m.CPU.XMM[d.RegOp.Reg], fpTyped); err != nil {
				return m.fault(err)
			}
			return m.done(d)
		},
	}
}

// gprRMW is the handler pair of a read-modify-write of the r/m operand:
// body sets the flags and returns the value written back, so a store
// that faults leaves the flags already set.
func gprRMW(body func(m *Machine, d *decoded, a uint64) uint64) [2]handler {
	return [2]handler{
		func(m *Machine, d *decoded) EventKind {
			m.CPU.GPR[d.RMOp.Reg] = body(m, d, m.CPU.GPR[d.RMOp.Reg])
			return m.done(d)
		},
		func(m *Machine, d *decoded) EventKind {
			a, err := m.load(d, false)
			if err != nil {
				return m.fault(err)
			}
			if err := m.store(d, body(m, d, a), false, false); err != nil {
				return m.fault(err)
			}
			return m.done(d)
		},
	}
}

// The hottest forms of the paper workloads' native instruction mix have
// handlers of their own, which reach their operands without calling a
// body: one indirect call a step instead of two, worth about 5% of the
// paper-batch set-up on a 2-vCPU host.

func mov64RIReg(m *Machine, d *decoded) EventKind {
	m.CPU.GPR[d.RMOp.Reg] = uint64(d.Imm)
	return m.done(d)
}

func mov64RMReg(m *Machine, d *decoded) EventKind {
	m.CPU.GPR[d.RegOp.Reg] = m.CPU.GPR[d.RMOp.Reg]
	return m.done(d)
}

func mov64RMMem(m *Machine, d *decoded) EventKind {
	v, err := m.load(d, false)
	if err != nil {
		return m.fault(err)
	}
	m.CPU.GPR[d.RegOp.Reg] = v
	return m.done(d)
}

func mov64MRReg(m *Machine, d *decoded) EventKind {
	m.CPU.GPR[d.RMOp.Reg] = m.CPU.GPR[d.RegOp.Reg]
	return m.done(d)
}

func mov64MRMem(m *Machine, d *decoded) EventKind {
	if err := m.store(d, m.CPU.GPR[d.RegOp.Reg], false, false); err != nil {
		return m.fault(err)
	}
	return m.done(d)
}

func movsdXM(m *Machine, d *decoded) EventKind {
	v, err := m.load(d, true)
	if err != nil {
		return m.fault(err)
	}
	m.CPU.XMM[d.RegOp.Reg] = [2]uint64{v, 0}
	return m.done(d)
}

func movsdMX(m *Machine, d *decoded) EventKind {
	if err := m.store(d, m.CPU.XMM[d.RegOp.Reg][0], true, true); err != nil {
		return m.fault(err)
	}
	return m.done(d)
}

func lea(m *Machine, d *decoded) EventKind {
	m.CPU.GPR[d.RegOp.Reg] = m.ea(d)
	return m.done(d)
}

func add64Reg(m *Machine, d *decoded) EventKind { return m.add(d, m.CPU.GPR[d.RMOp.Reg]) }

func cmp64Reg(m *Machine, d *decoded) EventKind { return m.cmp(d, m.CPU.GPR[d.RMOp.Reg]) }

func addsdReg(m *Machine, d *decoded) EventKind {
	return m.scalar(d, fpmath.OpAdd, m.CPU.XMM[d.RMOp.Reg][0])
}

func subsdReg(m *Machine, d *decoded) EventKind {
	return m.scalar(d, fpmath.OpSub, m.CPU.XMM[d.RMOp.Reg][0])
}

func mulsdReg(m *Machine, d *decoded) EventKind {
	return m.scalar(d, fpmath.OpMul, m.CPU.XMM[d.RMOp.Reg][0])
}

func (m *Machine) add(d *decoded, b uint64) EventKind {
	a := m.CPU.GPR[d.RegOp.Reg]
	res := a + b
	m.setAddFlags(a, b, res)
	m.CPU.GPR[d.RegOp.Reg] = res
	return m.done(d)
}

func (m *Machine) cmp(d *decoded, b uint64) EventKind {
	a := m.CPU.GPR[d.RegOp.Reg]
	m.setSubFlags(a, b, a-b)
	return m.done(d)
}

// setGPR is the body of a load into the reg-field GPR through ext.
func setGPR(ext func(uint64) uint64) srcBody {
	return func(m *Machine, d *decoded, v uint64) EventKind {
		m.CPU.GPR[d.RegOp.Reg] = ext(v)
		return m.done(d)
	}
}

// logic is the body of reg ← reg OP r/m for and/or/xor.
func logic(op func(a, b uint64) uint64) srcBody {
	return func(m *Machine, d *decoded, b uint64) EventKind {
		res := op(m.CPU.GPR[d.RegOp.Reg], b)
		m.setLogicFlags(res)
		m.CPU.GPR[d.RegOp.Reg] = res
		return m.done(d)
	}
}

// logicImm is the body of r/m ← r/m OP imm for and/or/xor.
func logicImm(op func(a, b uint64) uint64) func(m *Machine, d *decoded, a uint64) uint64 {
	return func(m *Machine, d *decoded, a uint64) uint64 {
		res := op(a, uint64(d.Imm))
		m.setLogicFlags(res)
		return res
	}
}

// shift is the body of a shift by imm8, or by CL when byCL, modulo 64.
func shift(byCL bool, op func(a, n uint64) uint64) func(m *Machine, d *decoded, a uint64) uint64 {
	return func(m *Machine, d *decoded, a uint64) uint64 {
		n := uint64(d.Imm) & 63
		if byCL {
			n = m.CPU.GPR[isa.RCX] & 63
		}
		res := op(a, n)
		m.setIntFlags(res)
		return res
	}
}

// setXMM is the body of a 128-bit load into the reg-field XMM register.
func setXMM(m *Machine, d *decoded, v [2]uint64) EventKind {
	m.CPU.XMM[d.RegOp.Reg] = v
	return m.done(d)
}

// lanes is the body of a shuffle or logical of the reg-field XMM
// register with the 128-bit r/m operand.
func lanes(op func(d, v [2]uint64, imm int64) [2]uint64) func(m *Machine, d *decoded, v [2]uint64) EventKind {
	return func(m *Machine, d *decoded, v [2]uint64) EventKind {
		r := &m.CPU.XMM[d.RegOp.Reg]
		*r = op(*r, v, d.Imm)
		return m.done(d)
	}
}

// FP arithmetic, compares and conversions compute, collect IEEE flags,
// and when an unmasked exception is raised set the MXCSR status bits and
// fault without writing the destination or advancing RIP.

// scalar runs a scalar double op on the low lanes: xmm ← xmm OP b, or
// xmm ← OP b for sqrtsd.
func (m *Machine) scalar(d *decoded, op fpmath.Op, bv uint64) EventKind {
	var a, b float64
	if op == fpmath.OpSqrt {
		a = fpmath.FromBits(bv)
	} else {
		a = fpmath.FromBits(m.CPU.XMM[d.RegOp.Reg][0])
		b = fpmath.FromBits(bv)
	}
	res := fpmath.Eval(op, a, b)
	if m.fpTrap(res.Flags) {
		return EvFPTrap
	}
	m.CPU.XMM[d.RegOp.Reg][0] = fpmath.Bits(res.Value)
	return m.retireFP(d)
}

// scalar is the source body of a scalar double op.
func scalar(op fpmath.Op) srcBody {
	return func(m *Machine, d *decoded, v uint64) EventKind { return m.scalar(d, op, v) }
}

// packed is the body of a packed double op on both lanes.
func packed(op fpmath.Op) func(m *Machine, d *decoded, bv [2]uint64) EventKind {
	return func(m *Machine, d *decoded, bv [2]uint64) EventKind {
		av := m.CPU.XMM[d.RegOp.Reg]
		var r0, r1 fpmath.Result
		if op == fpmath.OpSqrt {
			r0 = fpmath.Eval(op, fpmath.FromBits(bv[0]), 0)
			r1 = fpmath.Eval(op, fpmath.FromBits(bv[1]), 0)
		} else {
			r0 = fpmath.Eval(op, fpmath.FromBits(av[0]), fpmath.FromBits(bv[0]))
			r1 = fpmath.Eval(op, fpmath.FromBits(av[1]), fpmath.FromBits(bv[1]))
		}
		if m.fpTrap(r0.Flags | r1.Flags) {
			return EvFPTrap
		}
		m.CPU.XMM[d.RegOp.Reg] = [2]uint64{fpmath.Bits(r0.Value), fpmath.Bits(r1.Value)}
		return m.retireFP(d)
	}
}

// comisd is the body of ucomisd (signal false) and comisd (signal true):
// ZF/PF/CF from the compare, OF and SF cleared.
func comisd(signal bool) srcBody {
	return func(m *Machine, d *decoded, bv uint64) EventKind {
		a := fpmath.FromBits(m.CPU.XMM[d.RegOp.Reg][0])
		cr := fpmath.Compare(a, fpmath.FromBits(bv), signal)
		if m.fpTrap(cr.Flags) {
			return EvFPTrap
		}
		f := m.CPU.RFLAGS &^ (FlagZF | FlagPF | FlagCF | FlagOF | FlagSF)
		switch {
		case cr.Unordered:
			f |= FlagZF | FlagPF | FlagCF
		case cr.Less:
			f |= FlagCF
		case cr.Equal:
			f |= FlagZF
		}
		m.CPU.RFLAGS = f
		return m.retireFP(d)
	}
}

// cmpsd is the body of a scalar compare: p on the low lanes.
func cmpsd(p cmpPred) srcBody {
	return func(m *Machine, d *decoded, bv uint64) EventKind {
		mask, flags := p.eval(m.CPU.XMM[d.RegOp.Reg][0], bv)
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		m.CPU.XMM[d.RegOp.Reg][0] = mask
		return m.retireFP(d)
	}
}

// cmppd is the body of a packed compare: p on each lane.
func cmppd(p cmpPred) func(m *Machine, d *decoded, bv [2]uint64) EventKind {
	return func(m *Machine, d *decoded, bv [2]uint64) EventKind {
		av := m.CPU.XMM[d.RegOp.Reg]
		m0, f0 := p.eval(av[0], bv[0])
		m1, f1 := p.eval(av[1], bv[1])
		if m.fpTrap(f0 | f1) {
			return EvFPTrap
		}
		m.CPU.XMM[d.RegOp.Reg] = [2]uint64{m0, m1}
		return m.retireFP(d)
	}
}

// cvtsd2si is the body of cvtsd2si (round, math.RoundToEven) and
// cvttsd2si (math.Trunc).
func cvtsd2si(round func(float64) float64) srcBody {
	return func(m *Machine, d *decoded, v uint64) EventKind {
		f := fpmath.FromBits(v)
		var flags uint32
		var res int64
		switch {
		case fpmath.IsNaNBits(v) || f >= 0x1p63 || f < -0x1p63:
			flags |= fpmath.ExInvalid
			res = math.MinInt64
		default:
			r := round(f)
			res = int64(r)
			if r != f {
				flags |= fpmath.ExPrecision
			}
		}
		if m.fpTrap(flags) {
			return EvFPTrap
		}
		m.CPU.GPR[d.RegOp.Reg] = uint64(res)
		return m.retireFP(d)
	}
}

// roundsd is the body of roundsd: imm bits 0-1 pick the rounding, bit 3
// suppresses Precision.
func (m *Machine) roundsd(d *decoded, v uint64) EventKind {
	f := fpmath.FromBits(v)
	var flags uint32
	var r float64
	if fpmath.IsNaNBits(v) {
		if fpmath.IsSignalingNaNBits(v) {
			flags |= fpmath.ExInvalid
		}
		r = fpmath.FromBits(v | fpmath.QuietBit)
	} else {
		switch d.Imm & 3 {
		case 0:
			r = math.RoundToEven(f)
		case 1:
			r = math.Floor(f)
		case 2:
			r = math.Ceil(f)
		default:
			r = math.Trunc(f)
		}
		if r != f && d.Imm&8 == 0 {
			flags |= fpmath.ExPrecision
		}
	}
	if m.fpTrap(flags) {
		return EvFPTrap
	}
	m.CPU.XMM[d.RegOp.Reg][0] = fpmath.Bits(r)
	return m.retireFP(d)
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

// cmpPred is one cmpxx predicate. The "signaling" predicates (lt, le,
// nlt, nle) raise Invalid on any NaN; eq/neq/ord/unord raise Invalid only
// on signaling NaNs.
type cmpPred struct {
	signaling bool
	holds     func(a, b float64, unordered bool) bool
}

var (
	cmpEQ    = cmpPred{false, func(a, b float64, u bool) bool { return !u && a == b }}
	cmpLT    = cmpPred{true, func(a, b float64, u bool) bool { return !u && a < b }}
	cmpLE    = cmpPred{true, func(a, b float64, u bool) bool { return !u && a <= b }}
	cmpUNORD = cmpPred{false, func(a, b float64, u bool) bool { return u }}
	cmpNEQ   = cmpPred{false, func(a, b float64, u bool) bool { return u || a != b }}
	cmpNLT   = cmpPred{true, func(a, b float64, u bool) bool { return u || !(a < b) }}
	cmpNLE   = cmpPred{true, func(a, b float64, u bool) bool { return u || !(a <= b) }}
	cmpORD   = cmpPred{false, func(a, b float64, u bool) bool { return !u }}
)

// eval evaluates p over raw lane bits, returning the all-ones/all-zeros
// mask and the IEEE flags.
func (p cmpPred) eval(av, bv uint64) (mask uint64, flags uint32) {
	unordered := fpmath.IsNaNBits(av) || fpmath.IsNaNBits(bv)
	if fpmath.IsSignalingNaNBits(av) || fpmath.IsSignalingNaNBits(bv) || (unordered && p.signaling) {
		flags |= fpmath.ExInvalid
	}
	if p.holds(fpmath.FromBits(av), fpmath.FromBits(bv), unordered) {
		mask = ^uint64(0)
	}
	return mask, flags
}
