package machine_test

import (
	"math"
	"strings"
	"testing"

	"fpvm/internal/fpmath"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
)

func TestAllScalarFPOps(t *testing.T) {
	type tc struct {
		op   isa.Op
		a, b float64
		want float64
	}
	cases := []tc{
		{isa.ADDSD, 1.5, 2.5, 4},
		{isa.SUBSD, 5, 1.5, 3.5},
		{isa.MULSD, 3, 4, 12},
		{isa.DIVSD, 9, 2, 4.5},
		{isa.MINSD, -2, 7, -2},
		{isa.MAXSD, -2, 7, 7},
	}
	for _, c := range cases {
		m := newMachine(t, isa.MakeRM(c.op, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
		m.CPU.XMM[0][0] = fpmath.Bits(c.a)
		m.CPU.XMM[1][0] = fpmath.Bits(c.b)
		run(t, m)
		if got := fpmath.FromBits(m.CPU.XMM[0][0]); got != c.want {
			t.Errorf("%s(%v,%v) = %v want %v", c.op, c.a, c.b, got, c.want)
		}
	}
	// sqrtsd takes its operand from r/m.
	m := newMachine(t, isa.MakeRM(isa.SQRTSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
	m.CPU.XMM[1][0] = fpmath.Bits(16)
	run(t, m)
	if got := fpmath.FromBits(m.CPU.XMM[0][0]); got != 4 {
		t.Errorf("sqrtsd = %v", got)
	}
}

func TestAllPackedFPOps(t *testing.T) {
	cases := []struct {
		op             isa.Op
		a0, a1, b0, b1 float64
		w0, w1         float64
	}{
		{isa.SUBPD, 5, 10, 1, 2, 4, 8},
		{isa.MULPD, 3, 4, 2, 2, 6, 8},
		{isa.DIVPD, 8, 9, 2, 3, 4, 3},
		{isa.MINPD, 1, 9, 2, 8, 1, 8},
		{isa.MAXPD, 1, 9, 2, 8, 2, 9},
	}
	for _, c := range cases {
		m := newMachine(t, isa.MakeRM(c.op, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
		m.CPU.XMM[0] = [2]uint64{fpmath.Bits(c.a0), fpmath.Bits(c.a1)}
		m.CPU.XMM[1] = [2]uint64{fpmath.Bits(c.b0), fpmath.Bits(c.b1)}
		run(t, m)
		g0 := fpmath.FromBits(m.CPU.XMM[0][0])
		g1 := fpmath.FromBits(m.CPU.XMM[0][1])
		if g0 != c.w0 || g1 != c.w1 {
			t.Errorf("%s: {%v,%v} want {%v,%v}", c.op, g0, g1, c.w0, c.w1)
		}
	}
	// sqrtpd.
	m := newMachine(t, isa.MakeRM(isa.SQRTPD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
	m.CPU.XMM[1] = [2]uint64{fpmath.Bits(4), fpmath.Bits(25)}
	run(t, m)
	if fpmath.FromBits(m.CPU.XMM[0][0]) != 2 || fpmath.FromBits(m.CPU.XMM[0][1]) != 5 {
		t.Error("sqrtpd")
	}
}

func TestPackedCmpMasks(t *testing.T) {
	for _, c := range []struct {
		op     isa.Op
		w0, w1 uint64
	}{
		{isa.CMPEQPD, ^uint64(0), 0},
		{isa.CMPLTPD, 0, ^uint64(0)},
		{isa.CMPLEPD, ^uint64(0), ^uint64(0)},
		{isa.CMPNEQPD, 0, ^uint64(0)},
	} {
		m := newMachine(t, isa.MakeRM(c.op, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
		m.CPU.XMM[0] = [2]uint64{fpmath.Bits(1), fpmath.Bits(2)} // {1,2}
		m.CPU.XMM[1] = [2]uint64{fpmath.Bits(1), fpmath.Bits(9)} // {1,9}
		run(t, m)
		if m.CPU.XMM[0] != [2]uint64{c.w0, c.w1} {
			t.Errorf("%s: %x", c.op, m.CPU.XMM[0])
		}
	}
}

func TestRemainingScalarCmps(t *testing.T) {
	for _, c := range []struct {
		op   isa.Op
		a, b float64
		want bool
	}{
		{isa.CMPEQSD, 2, 2, true},
		{isa.CMPLESD, 2, 2, true},
		{isa.CMPUNORDSD, 2, 2, false},
		{isa.CMPNEQSD, 2, 3, true},
		{isa.CMPNLTSD, 3, 2, true},
		{isa.CMPNLESD, 3, 2, true},
		{isa.CMPORDSD, 2, 3, true},
	} {
		m := newMachine(t, isa.MakeRM(c.op, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
		m.CPU.XMM[0][0] = fpmath.Bits(c.a)
		m.CPU.XMM[1][0] = fpmath.Bits(c.b)
		run(t, m)
		got := m.CPU.XMM[0][0] == ^uint64(0)
		if got != c.want {
			t.Errorf("%s(%v,%v) = %v", c.op, c.a, c.b, got)
		}
	}
}

func TestMoreDataMoves(t *testing.T) {
	m := newMachine(t,
		// 32/16-bit paths and sign extension through memory.
		isa.MakeRM(isa.MOV32MR, isa.GPR(isa.RAX), isa.Mem(isa.RDI, 0)),
		isa.MakeRM(isa.MOV32RM, isa.GPR(isa.RBX), isa.Mem(isa.RDI, 0)),
		isa.MakeRM(isa.MOV16MR, isa.GPR(isa.RAX), isa.Mem(isa.RDI, 8)),
		isa.MakeRM(isa.MOV16RM, isa.GPR(isa.RCX), isa.Mem(isa.RDI, 8)),
		isa.MakeRM(isa.MOVSX16, isa.GPR(isa.RDX), isa.Mem(isa.RDI, 8)),
		isa.MakeRM(isa.MOVZX16, isa.GPR(isa.RSI), isa.Mem(isa.RDI, 8)),
		isa.MakeRM(isa.MOVSXD, isa.GPR(isa.R8), isa.Mem(isa.RDI, 0)),
		isa.MakeMI(isa.MOV32RI, isa.GPR(isa.R9), -1),
		isa.MakeRM(isa.XCHG64, isa.GPR(isa.RAX), isa.GPR(isa.RBX)),
	)
	m.CPU.GPR[isa.RDI] = dataBase
	m.CPU.GPR[isa.RAX] = 0xFFFF_FFFF_8000_0001 // low32 = 0x80000001
	run(t, m)
	if m.CPU.GPR[isa.RCX] != 0x0001 {
		t.Errorf("mov16 load: %#x", m.CPU.GPR[isa.RCX])
	}
	if int64(m.CPU.GPR[isa.RDX]) != 1 {
		t.Errorf("movsx16: %#x", m.CPU.GPR[isa.RDX])
	}
	if m.CPU.GPR[isa.RSI] != 1 {
		t.Errorf("movzx16: %#x", m.CPU.GPR[isa.RSI])
	}
	if m.CPU.GPR[isa.R8] != 0xFFFF_FFFF_8000_0001 {
		t.Errorf("movsxd: %#x", m.CPU.GPR[isa.R8])
	}
	if uint32(m.CPU.GPR[isa.R9]) != 0xFFFFFFFF || m.CPU.GPR[isa.R9]>>32 != 0 {
		t.Errorf("mov32 imm zero-extend: %#x", m.CPU.GPR[isa.R9])
	}
	// xchg swapped rax (original full value) and rbx (zero-extended load).
	if m.CPU.GPR[isa.RAX] != 0x80000001 || m.CPU.GPR[isa.RBX] != 0xFFFF_FFFF_8000_0001 {
		t.Errorf("xchg: rax=%#x rbx=%#x", m.CPU.GPR[isa.RAX], m.CPU.GPR[isa.RBX])
	}
}

func TestALUImmediatesAndUnary(t *testing.T) {
	m := newMachine(t,
		isa.MakeMI(isa.ADD64I, isa.GPR(isa.RAX), 100),
		isa.MakeMI(isa.AND64I, isa.GPR(isa.RAX), 0xFF),
		isa.MakeMI(isa.OR64I, isa.GPR(isa.RAX), 0x100),
		isa.MakeMI(isa.XOR64I, isa.GPR(isa.RAX), 0x1),
		isa.MakeRMI(isa.IMUL64I, isa.GPR(isa.RBX), isa.GPR(isa.RAX), 3),
		isa.MakeM(isa.INC64, isa.GPR(isa.RCX)),
		isa.MakeM(isa.DEC64, isa.GPR(isa.RDX)),
		isa.MakeM(isa.NEG64, isa.GPR(isa.RSI)),
		isa.MakeM(isa.NOT64, isa.GPR(isa.R8)),
	)
	m.CPU.GPR[isa.RAX] = 10
	m.CPU.GPR[isa.RCX] = 7
	m.CPU.GPR[isa.RDX] = 7
	m.CPU.GPR[isa.RSI] = 5
	m.CPU.GPR[isa.R8] = 0
	run(t, m)
	want := uint64(((10+100)&0xFF | 0x100) ^ 1)
	if m.CPU.GPR[isa.RAX] != want {
		t.Errorf("imm chain: %#x want %#x", m.CPU.GPR[isa.RAX], want)
	}
	if m.CPU.GPR[isa.RBX] != want*3 {
		t.Errorf("imul imm: %d", m.CPU.GPR[isa.RBX])
	}
	if m.CPU.GPR[isa.RCX] != 8 || m.CPU.GPR[isa.RDX] != 6 {
		t.Error("inc/dec")
	}
	if int64(m.CPU.GPR[isa.RSI]) != -5 || m.CPU.GPR[isa.R8] != ^uint64(0) {
		t.Error("neg/not")
	}
}

func TestShiftByCL(t *testing.T) {
	m := newMachine(t,
		isa.MakeM(isa.SHL64CL, isa.GPR(isa.RAX)),
		isa.MakeM(isa.SHR64CL, isa.GPR(isa.RBX)),
		isa.MakeM(isa.SAR64CL, isa.GPR(isa.RDX)),
	)
	m.CPU.GPR[isa.RCX] = 4
	m.CPU.GPR[isa.RAX] = 1
	m.CPU.GPR[isa.RBX] = 256
	m.CPU.GPR[isa.RDX] = ^uint64(255) // -256
	run(t, m)
	if m.CPU.GPR[isa.RAX] != 16 || m.CPU.GPR[isa.RBX] != 16 || int64(m.CPU.GPR[isa.RDX]) != -16 {
		t.Errorf("cl shifts: %d %d %d", m.CPU.GPR[isa.RAX], m.CPU.GPR[isa.RBX], int64(m.CPU.GPR[isa.RDX]))
	}
}

func TestJmpIndirectAndLea(t *testing.T) {
	// lea rax, [rdi + 2*rsi + 8]; jmp rax-over-a-mov (register-indirect).
	movImm := isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RCX), 1)
	movLen, _ := isa.EncodedLen(&movImm)
	lea := isa.MakeRM(isa.LEA, isa.GPR(isa.RAX), isa.MemIdx(isa.RDI, isa.RSI, 2, 8))
	leaLen, _ := isa.EncodedLen(&lea)
	jmpr := isa.MakeM(isa.JMPR, isa.GPR(isa.RBX))
	jmprLen, _ := isa.EncodedLen(&jmpr)

	m := newMachine(t, lea, jmpr, movImm)
	m.CPU.GPR[isa.RDI] = 100
	m.CPU.GPR[isa.RSI] = 4
	m.CPU.GPR[isa.RBX] = codeBase + uint64(leaLen+jmprLen+movLen) // skip the mov
	run(t, m)
	if m.CPU.GPR[isa.RAX] != 100+2*4+8 {
		t.Errorf("lea: %d", m.CPU.GPR[isa.RAX])
	}
	if m.CPU.GPR[isa.RCX] != 0 {
		t.Error("jmpr did not skip the mov")
	}
}

func TestMovapdStoreAndLogicals(t *testing.T) {
	m := newMachine(t,
		isa.MakeRM(isa.MOVUPDMX, isa.XMM(isa.XMM0), isa.Mem(isa.RDI, 0)),
		isa.MakeRM(isa.MOVDQAXM, isa.XMM(isa.XMM1), isa.Mem(isa.RDI, 0)),
		isa.MakeRM(isa.MOVDQUMX, isa.XMM(isa.XMM1), isa.Mem(isa.RDI, 16)),
		isa.MakeRM(isa.MOVDQAXX, isa.XMM(isa.XMM2), isa.XMM(isa.XMM1)),
		isa.MakeRM(isa.ANDPD, isa.XMM(isa.XMM3), isa.XMM(isa.XMM0)),
		isa.MakeRM(isa.ORPD, isa.XMM(isa.XMM4), isa.XMM(isa.XMM0)),
		isa.MakeRM(isa.ANDNPD, isa.XMM(isa.XMM5), isa.XMM(isa.XMM0)),
		isa.MakeRM(isa.PXOR, isa.XMM(isa.XMM6), isa.XMM(isa.XMM6)),
		isa.MakeRM(isa.MOVHPDMX, isa.XMM(isa.XMM0), isa.Mem(isa.RDI, 32)),
		isa.MakeRM(isa.MOVLPDMX, isa.XMM(isa.XMM0), isa.Mem(isa.RDI, 40)),
		isa.MakeRM(isa.MOVLPDXM, isa.XMM(isa.XMM7), isa.Mem(isa.RDI, 32)),
		isa.MakeRM(isa.MOVQMX, isa.XMM(isa.XMM0), isa.Mem(isa.RDI, 48)),
		isa.MakeRM(isa.MOVDXG, isa.XMM(isa.XMM9), isa.GPR(isa.RAX)),
		isa.MakeRM(isa.MOVDGX, isa.GPR(isa.RBX), isa.XMM(isa.XMM9)),
		isa.MakeRM(isa.MOVQXG, isa.XMM(isa.XMM10), isa.GPR(isa.RAX)),
		isa.MakeRM(isa.MOVQGX, isa.GPR(isa.RCX), isa.XMM(isa.XMM10)),
	)
	m.CPU.GPR[isa.RDI] = dataBase
	m.CPU.GPR[isa.RAX] = 0x1234_5678_9ABC_DEF0
	m.CPU.XMM[0] = [2]uint64{0xF0F0, 0x0F0F}
	m.CPU.XMM[3] = [2]uint64{0xFFFF, 0xFFFF}
	m.CPU.XMM[4] = [2]uint64{0x0001, 0x1000}
	m.CPU.XMM[5] = [2]uint64{0x00FF, 0xFF00}
	m.CPU.XMM[6] = [2]uint64{0xAAAA, 0xBBBB}
	run(t, m)
	if m.CPU.XMM[1] != m.CPU.XMM[0] || m.CPU.XMM[2] != m.CPU.XMM[1] {
		t.Error("movdqa round trip")
	}
	if m.CPU.XMM[3] != [2]uint64{0xF0F0, 0x0F0F} {
		t.Errorf("andpd: %x", m.CPU.XMM[3])
	}
	if m.CPU.XMM[4] != [2]uint64{0xF0F1, 0x1F0F} {
		t.Errorf("orpd: %x", m.CPU.XMM[4])
	}
	if m.CPU.XMM[5] != [2]uint64{0xF000, 0x000F} {
		t.Errorf("andnpd: %x", m.CPU.XMM[5])
	}
	if m.CPU.XMM[6] != [2]uint64{0, 0} {
		t.Error("pxor self")
	}
	hi, _ := m.Mem.ReadUint64(dataBase + 32)
	lo, _ := m.Mem.ReadUint64(dataBase + 40)
	if hi != 0x0F0F || lo != 0xF0F0 {
		t.Errorf("movhpd/movlpd stores: %x %x", hi, lo)
	}
	if m.CPU.XMM[7][0] != 0x0F0F {
		t.Error("movlpd load")
	}
	q, _ := m.Mem.ReadUint64(dataBase + 48)
	if q != 0xF0F0 {
		t.Error("movq store")
	}
	if m.CPU.GPR[isa.RBX] != 0x9ABC_DEF0 {
		t.Errorf("movd roundtrip: %#x", m.CPU.GPR[isa.RBX])
	}
	if m.CPU.GPR[isa.RCX] != 0x1234_5678_9ABC_DEF0 {
		t.Errorf("movq roundtrip: %#x", m.CPU.GPR[isa.RCX])
	}
}

func TestMachineHelpers(t *testing.T) {
	m := newMachine(t, isa.MakeNullary(isa.NOP))
	m.CPU.SetXMMLo(isa.XMM3, 0x42)
	if m.CPU.XMMLo(isa.XMM3) != 0x42 {
		t.Error("XMMLo")
	}
	if !strings.Contains(m.DumpState(), "rip=") {
		t.Error("DumpState")
	}
	if n, k := m.RunFor(1, math.MaxUint64); n != 1 || k != machine.EvNone {
		t.Errorf("RunFor(1): %d retired, %v", n, k)
	}
	m.Reset()
	if m.Cycles != 0 || m.CPU.MXCSR != machine.MXCSRDefault {
		t.Error("Reset")
	}
	m.InvalidateICache() // must not panic
	in := isa.MakeRM(isa.MOV64RM, isa.GPR(isa.RAX), isa.Mem(isa.RBX, 8))
	m.CPU.GPR[isa.RBX] = 100
	if m.EffectiveAddr(&in, in.RMOp) != 108 {
		t.Error("EffectiveAddr")
	}
	for _, k := range []machine.EventKind{machine.EvNone, machine.EvFPTrap,
		machine.EvBreakpoint, machine.EvSyscall, machine.EvHalt,
		machine.EvHostCall, machine.EvFault} {
		if k.String() == "event?" {
			t.Errorf("missing event name for %d", k)
		}
	}
}

func TestROUNDSDModes(t *testing.T) {
	for _, c := range []struct {
		imm  int64
		want float64
	}{
		{0 | 8, 2}, // nearest-even of 2.5, PE suppressed
		{1 | 8, 2}, // floor
		{2 | 8, 3}, // ceil
		{3 | 8, 2}, // trunc
	} {
		m := newMachine(t, isa.MakeRMI(isa.ROUNDSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1), c.imm))
		m.CPU.XMM[1][0] = fpmath.Bits(2.5)
		run(t, m)
		if got := fpmath.FromBits(m.CPU.XMM[0][0]); got != c.want {
			t.Errorf("roundsd imm=%d: %v want %v", c.imm, got, c.want)
		}
	}
}
