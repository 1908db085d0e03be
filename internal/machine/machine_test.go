package machine_test

import (
	"math"
	"math/rand"
	"testing"

	"fpvm/internal/fpmath"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
)

// fixture assembles raw instructions at codeBase and returns a machine
// ready to step through them (stack mapped, scratch data page at dataBase).
const (
	codeBase = 0x400000
	dataBase = 0x800000
	stackTop = 0x700000
)

func newMachine(t *testing.T, insts ...isa.Inst) *machine.Machine {
	t.Helper()
	as := mem.NewAddressSpace()
	var code []byte
	addr := uint64(codeBase)
	for i := range insts {
		insts[i].Addr = addr
		enc, err := isa.Encode(&insts[i])
		if err != nil {
			t.Fatalf("encode %s: %v", insts[i].Op, err)
		}
		code = append(code, enc...)
		addr += uint64(len(enc))
	}
	// Terminate with hlt.
	hlt := isa.MakeNullary(isa.HLT)
	enc, _ := isa.Encode(&hlt)
	code = append(code, enc...)

	as.Map("code", codeBase, uint64(len(code)), mem.PermRWX)
	if err := as.Write(codeBase, code); err != nil {
		t.Fatal(err)
	}
	as.Map("data", dataBase, 4096, mem.PermRW)
	as.Map("stack", stackTop-0x10000, 0x10000, mem.PermRW)

	m := machine.New(as)
	m.CPU.RIP = codeBase
	m.CPU.GPR[isa.RSP] = stackTop - 64
	return m
}

// run steps until halt or fault, failing the test on fault.
func run(t *testing.T, m *machine.Machine) {
	t.Helper()
	for {
		ev := m.Step()
		switch ev.Kind {
		case machine.EvNone:
		case machine.EvHalt:
			return
		default:
			t.Fatalf("unexpected event %v (err=%v) at rip=%#x", ev.Kind, ev.Err, m.CPU.RIP)
		}
	}
}

func TestIntALUAgainstGo(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	type alucase struct {
		op isa.Op
		f  func(a, b uint64) uint64
	}
	cases := []alucase{
		{isa.ADD64, func(a, b uint64) uint64 { return a + b }},
		{isa.SUB64, func(a, b uint64) uint64 { return a - b }},
		{isa.IMUL64, func(a, b uint64) uint64 { return uint64(int64(a) * int64(b)) }},
		{isa.AND64, func(a, b uint64) uint64 { return a & b }},
		{isa.OR64, func(a, b uint64) uint64 { return a | b }},
		{isa.XOR64, func(a, b uint64) uint64 { return a ^ b }},
	}
	for _, tc := range cases {
		for i := 0; i < 50; i++ {
			a, b := r.Uint64(), r.Uint64()
			m := newMachine(t, isa.MakeRM(tc.op, isa.GPR(isa.RAX), isa.GPR(isa.RBX)))
			m.CPU.GPR[isa.RAX] = a
			m.CPU.GPR[isa.RBX] = b
			run(t, m)
			if got, want := m.CPU.GPR[isa.RAX], tc.f(a, b); got != want {
				t.Fatalf("%s(%#x, %#x) = %#x, want %#x", tc.op, a, b, got, want)
			}
		}
	}
}

func TestSubCmpFlagsAndJcc(t *testing.T) {
	// cmp rax, rbx then conditional jumps, verified against Go comparisons.
	r := rand.New(rand.NewSource(6))
	jccs := []struct {
		op   isa.Op
		pred func(a, b int64) bool
	}{
		{isa.JE, func(a, b int64) bool { return a == b }},
		{isa.JNE, func(a, b int64) bool { return a != b }},
		{isa.JL, func(a, b int64) bool { return a < b }},
		{isa.JLE, func(a, b int64) bool { return a <= b }},
		{isa.JG, func(a, b int64) bool { return a > b }},
		{isa.JGE, func(a, b int64) bool { return a >= b }},
	}
	ujccs := []struct {
		op   isa.Op
		pred func(a, b uint64) bool
	}{
		{isa.JB, func(a, b uint64) bool { return a < b }},
		{isa.JBE, func(a, b uint64) bool { return a <= b }},
		{isa.JA, func(a, b uint64) bool { return a > b }},
		{isa.JAE, func(a, b uint64) bool { return a >= b }},
	}
	for i := 0; i < 60; i++ {
		a, b := r.Uint64(), r.Uint64()
		if i%4 == 0 {
			b = a // exercise equality
		}
		for _, j := range jccs {
			if gotTaken := runJcc(t, j.op, a, b); gotTaken != j.pred(int64(a), int64(b)) {
				t.Fatalf("%s after cmp(%#x,%#x): taken=%v", j.op, a, b, gotTaken)
			}
		}
		for _, j := range ujccs {
			if gotTaken := runJcc(t, j.op, a, b); gotTaken != j.pred(a, b) {
				t.Fatalf("%s after cmp(%#x,%#x): taken=%v", j.op, a, b, gotTaken)
			}
		}
	}
}

// runJcc builds: cmp rax, rbx; jcc +skip; mov rcx, 1; hlt — rcx==0 means
// the branch was taken (it skips the mov).
func runJcc(t *testing.T, jcc isa.Op, a, b uint64) bool {
	t.Helper()
	movImm := isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RCX), 1)
	movLen, err := isa.EncodedLen(&movImm)
	if err != nil {
		t.Fatal(err)
	}
	m := newMachine(t,
		isa.MakeRM(isa.CMP64, isa.GPR(isa.RAX), isa.GPR(isa.RBX)),
		isa.MakeRel(jcc, int64(movLen)),
		movImm,
	)
	m.CPU.GPR[isa.RAX] = a
	m.CPU.GPR[isa.RBX] = b
	run(t, m)
	return m.CPU.GPR[isa.RCX] == 0
}

func TestFPTrapPrecision(t *testing.T) {
	// divsd xmm0, xmm1 with inexact quotient: unmasked -> trap, dest
	// unchanged, RIP at the faulting instruction; masked -> result written
	// and PE status set.
	build := func() *machine.Machine {
		return newMachine(t, isa.MakeRM(isa.DIVSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
	}

	m := build()
	m.CPU.MXCSR = machine.MXCSRTrapAll
	m.CPU.XMM[0][0] = fpmath.Bits(1)
	m.CPU.XMM[1][0] = fpmath.Bits(3)
	ev := m.Step()
	if ev.Kind != machine.EvFPTrap {
		t.Fatalf("event %v, want #XF", ev.Kind)
	}
	if ev.FPFlags&fpmath.ExPrecision == 0 {
		t.Errorf("flags %v, want Precision", fpmath.ExceptionNames(ev.FPFlags))
	}
	if m.CPU.RIP != codeBase {
		t.Errorf("RIP advanced to %#x on fault", m.CPU.RIP)
	}
	if m.CPU.XMM[0][0] != fpmath.Bits(1) {
		t.Error("destination written despite fault")
	}
	if m.CPU.MXCSR&fpmath.ExPrecision == 0 {
		t.Error("MXCSR status not set on fault")
	}

	m = build()
	m.CPU.MXCSR = machine.MXCSRDefault
	m.CPU.XMM[0][0] = fpmath.Bits(1)
	m.CPU.XMM[1][0] = fpmath.Bits(3)
	run(t, m)
	if got := fpmath.FromBits(m.CPU.XMM[0][0]); got != 1.0/3.0 {
		t.Errorf("masked divsd = %v", got)
	}
	if m.CPU.MXCSR&fpmath.ExPrecision == 0 {
		t.Error("masked run did not set PE status")
	}
}

func TestExactFPDoesNotTrap(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.ADDSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
	m.CPU.MXCSR = machine.MXCSRTrapAll
	m.CPU.XMM[0][0] = fpmath.Bits(1)
	m.CPU.XMM[1][0] = fpmath.Bits(2)
	run(t, m)
	if got := fpmath.FromBits(m.CPU.XMM[0][0]); got != 3 {
		t.Errorf("1+2 = %v", got)
	}
	if m.FPInstructions != 1 {
		t.Errorf("FPInstructions = %d", m.FPInstructions)
	}
}

func TestSNaNConsumptionTraps(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.MULSD, isa.XMM(isa.XMM2), isa.XMM(isa.XMM3)))
	m.CPU.MXCSR = machine.MXCSRTrapAll
	m.CPU.XMM[2][0] = fpmath.ExpMask | 0x42 // SNaN (a NaN-box shape)
	m.CPU.XMM[3][0] = fpmath.Bits(2)
	ev := m.Step()
	if ev.Kind != machine.EvFPTrap || ev.FPFlags&fpmath.ExInvalid == 0 {
		t.Fatalf("event %v flags %v, want #XF Invalid", ev.Kind, fpmath.ExceptionNames(ev.FPFlags))
	}
}

func TestCallRetStack(t *testing.T) {
	// call f; hlt; f: mov rax, 7; ret
	callInst := isa.MakeRel(isa.CALL, 0)
	callLen, _ := isa.EncodedLen(&callInst)
	hlt := isa.MakeNullary(isa.HLT)
	hltLen, _ := isa.EncodedLen(&hlt)
	callInst.Imm = int64(hltLen) // skip over hlt to reach f

	m := newMachine(t,
		callInst,
		hlt,
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), 7),
		isa.MakeNullary(isa.RET),
	)
	sp0 := m.CPU.GPR[isa.RSP]
	run(t, m)
	if m.CPU.GPR[isa.RAX] != 7 {
		t.Errorf("rax = %d", m.CPU.GPR[isa.RAX])
	}
	if m.CPU.GPR[isa.RSP] != sp0 {
		t.Errorf("stack imbalance: %#x vs %#x", m.CPU.GPR[isa.RSP], sp0)
	}
	if m.CPU.RIP != codeBase+uint64(callLen)+uint64(hltLen) {
		t.Errorf("halted at %#x", m.CPU.RIP)
	}
}

func TestPushPop(t *testing.T) {
	m := newMachine(t,
		isa.MakeM(isa.PUSH, isa.GPR(isa.RAX)),
		isa.MakeM(isa.POP, isa.GPR(isa.RBX)),
	)
	m.CPU.GPR[isa.RAX] = 0xDEADBEEF
	run(t, m)
	if m.CPU.GPR[isa.RBX] != 0xDEADBEEF {
		t.Errorf("rbx = %#x", m.CPU.GPR[isa.RBX])
	}
}

func TestMemoryLoadsStores(t *testing.T) {
	m := newMachine(t,
		isa.MakeRM(isa.MOV64MR, isa.GPR(isa.RAX), isa.Mem(isa.RDI, 16)),
		isa.MakeRM(isa.MOV64RM, isa.GPR(isa.RBX), isa.Mem(isa.RDI, 16)),
		isa.MakeRM(isa.MOV8MR, isa.GPR(isa.RCX), isa.Mem(isa.RDI, 32)),
		isa.MakeRM(isa.MOVZX8, isa.GPR(isa.RDX), isa.Mem(isa.RDI, 32)),
		isa.MakeRM(isa.MOVSX8, isa.GPR(isa.RSI), isa.Mem(isa.RDI, 32)),
	)
	m.CPU.GPR[isa.RDI] = dataBase
	m.CPU.GPR[isa.RAX] = 0x1122334455667788
	m.CPU.GPR[isa.RCX] = 0xFF
	run(t, m)
	if m.CPU.GPR[isa.RBX] != 0x1122334455667788 {
		t.Errorf("load64 = %#x", m.CPU.GPR[isa.RBX])
	}
	if m.CPU.GPR[isa.RDX] != 0xFF {
		t.Errorf("movzx8 = %#x", m.CPU.GPR[isa.RDX])
	}
	if m.CPU.GPR[isa.RSI] != 0xFFFFFFFFFFFFFFFF {
		t.Errorf("movsx8 = %#x", m.CPU.GPR[isa.RSI])
	}
}

func TestXMMMoveSemantics(t *testing.T) {
	m := newMachine(t,
		// store both lanes, reload via different forms
		isa.MakeRM(isa.MOVAPDMX, isa.XMM(isa.XMM0), isa.Mem(isa.RDI, 0)),
		isa.MakeRM(isa.MOVSDXM, isa.XMM(isa.XMM1), isa.Mem(isa.RDI, 0)),  // lane0, zero hi
		isa.MakeRM(isa.MOVHPDXM, isa.XMM(isa.XMM2), isa.Mem(isa.RDI, 8)), // hi lane only
		isa.MakeRM(isa.MOVDDUP, isa.XMM(isa.XMM3), isa.Mem(isa.RDI, 0)),
		isa.MakeRM(isa.UNPCKLPD, isa.XMM(isa.XMM4), isa.XMM(isa.XMM0)),
		isa.MakeRM(isa.UNPCKHPD, isa.XMM(isa.XMM5), isa.XMM(isa.XMM0)),
		isa.MakeRMI(isa.SHUFPD, isa.XMM(isa.XMM6), isa.XMM(isa.XMM0), 1),
	)
	m.CPU.GPR[isa.RDI] = dataBase
	m.CPU.XMM[0] = [2]uint64{0x1111, 0x2222}
	m.CPU.XMM[2] = [2]uint64{0xAAAA, 0xBBBB}
	m.CPU.XMM[4] = [2]uint64{0x4444, 0x5555}
	m.CPU.XMM[5] = [2]uint64{0x6666, 0x7777}
	m.CPU.XMM[6] = [2]uint64{0x8888, 0x9999}
	run(t, m)
	if m.CPU.XMM[1] != [2]uint64{0x1111, 0} {
		t.Errorf("movsd load: %x", m.CPU.XMM[1])
	}
	if m.CPU.XMM[2] != [2]uint64{0xAAAA, 0x2222} {
		t.Errorf("movhpd: %x", m.CPU.XMM[2])
	}
	if m.CPU.XMM[3] != [2]uint64{0x1111, 0x1111} {
		t.Errorf("movddup: %x", m.CPU.XMM[3])
	}
	if m.CPU.XMM[4] != [2]uint64{0x4444, 0x1111} {
		t.Errorf("unpcklpd: %x", m.CPU.XMM[4])
	}
	if m.CPU.XMM[5] != [2]uint64{0x7777, 0x2222} {
		t.Errorf("unpckhpd: %x", m.CPU.XMM[5])
	}
	// shufpd imm=1: lo = dst.hi, hi = src.lo
	if m.CPU.XMM[6] != [2]uint64{0x9999, 0x1111} {
		t.Errorf("shufpd: %x", m.CPU.XMM[6])
	}
}

func TestUcomisdFlags(t *testing.T) {
	cases := []struct {
		a, b    float64
		jccTrue isa.Op
	}{
		{1, 2, isa.JB},
		{2, 1, isa.JA},
		{2, 2, isa.JE},
	}
	for _, tc := range cases {
		movImm := isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RCX), 1)
		movLen, _ := isa.EncodedLen(&movImm)
		m := newMachine(t,
			isa.MakeRM(isa.UCOMISD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)),
			isa.MakeRel(tc.jccTrue, int64(movLen)),
			movImm,
		)
		m.CPU.XMM[0][0] = fpmath.Bits(tc.a)
		m.CPU.XMM[1][0] = fpmath.Bits(tc.b)
		run(t, m)
		if m.CPU.GPR[isa.RCX] != 0 {
			t.Errorf("ucomisd(%v,%v): %v not taken", tc.a, tc.b, tc.jccTrue)
		}
	}
}

func TestCmpPredicateMask(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.CMPLTSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
	m.CPU.XMM[0][0] = fpmath.Bits(1)
	m.CPU.XMM[1][0] = fpmath.Bits(2)
	run(t, m)
	if m.CPU.XMM[0][0] != ^uint64(0) {
		t.Errorf("cmpltsd(1,2) mask = %#x", m.CPU.XMM[0][0])
	}
}

func TestPackedArithmetic(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.ADDPD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)))
	m.CPU.XMM[0] = [2]uint64{fpmath.Bits(1), fpmath.Bits(10)}
	m.CPU.XMM[1] = [2]uint64{fpmath.Bits(2), fpmath.Bits(20)}
	run(t, m)
	if fpmath.FromBits(m.CPU.XMM[0][0]) != 3 || fpmath.FromBits(m.CPU.XMM[0][1]) != 30 {
		t.Errorf("addpd: %v %v", fpmath.FromBits(m.CPU.XMM[0][0]), fpmath.FromBits(m.CPU.XMM[0][1]))
	}
}

func TestCvtInstructions(t *testing.T) {
	m := newMachine(t,
		isa.MakeRM(isa.CVTSI2SD, isa.XMM(isa.XMM0), isa.GPR(isa.RAX)),
		isa.MakeRM(isa.CVTTSD2SI, isa.GPR(isa.RBX), isa.XMM(isa.XMM1)),
		isa.MakeRM(isa.CVTSD2SI, isa.GPR(isa.RCX), isa.XMM(isa.XMM2)),
	)
	m.CPU.GPR[isa.RAX] = uint64(42)
	m.CPU.XMM[1][0] = fpmath.Bits(-7.9) // trunc -> -7
	m.CPU.XMM[2][0] = fpmath.Bits(2.5)  // round-even -> 2
	run(t, m)
	if fpmath.FromBits(m.CPU.XMM[0][0]) != 42 {
		t.Errorf("cvtsi2sd: %v", fpmath.FromBits(m.CPU.XMM[0][0]))
	}
	if int64(m.CPU.GPR[isa.RBX]) != -7 {
		t.Errorf("cvttsd2si: %d", int64(m.CPU.GPR[isa.RBX]))
	}
	if int64(m.CPU.GPR[isa.RCX]) != 2 {
		t.Errorf("cvtsd2si: %d", int64(m.CPU.GPR[isa.RCX]))
	}
}

func TestInt3AndSyscallEvents(t *testing.T) {
	m := newMachine(t, isa.MakeNullary(isa.INT3), isa.MakeNullary(isa.SYSCALL))
	ev := m.Step()
	if ev.Kind != machine.EvBreakpoint {
		t.Fatalf("event %v", ev.Kind)
	}
	if m.CPU.RIP != codeBase+1 {
		t.Errorf("int3 RIP = %#x, want past the int3", m.CPU.RIP)
	}
	ev = m.Step()
	if ev.Kind != machine.EvSyscall {
		t.Fatalf("event %v", ev.Kind)
	}
}

func TestHostCallEvent(t *testing.T) {
	m := newMachine(t, isa.MakeM(isa.CALLR, isa.GPR(isa.RAX)))
	m.CPU.GPR[isa.RAX] = 0x7000_0000_0010
	ev := m.Step()
	if ev.Kind != machine.EvHostCall || ev.HostAddr != 0x7000_0000_0010 {
		t.Fatalf("event %v addr %#x", ev.Kind, ev.HostAddr)
	}
	// Return address must be on the stack.
	ret, err := m.Mem.ReadUint64(m.CPU.GPR[isa.RSP])
	if err != nil || ret == 0 {
		t.Errorf("no return address pushed: %#x %v", ret, err)
	}
}

func TestFaults(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.MOV64RM, isa.GPR(isa.RAX), isa.Mem(isa.RBX, 0)))
	m.CPU.GPR[isa.RBX] = 0xDEAD0000 // unmapped
	ev := m.Step()
	if ev.Kind != machine.EvFault {
		t.Fatalf("event %v, want fault", ev.Kind)
	}
}

func TestXorpdZeroIdiom(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.XORPD, isa.XMM(isa.XMM7), isa.XMM(isa.XMM7)))
	m.CPU.XMM[7] = [2]uint64{fpmath.Bits(math.Pi), 0x123}
	run(t, m)
	if m.CPU.XMM[7] != [2]uint64{0, 0} {
		t.Errorf("xorpd self: %x", m.CPU.XMM[7])
	}
}

func TestShifts(t *testing.T) {
	m := newMachine(t,
		isa.MakeMI(isa.SHL64I, isa.GPR(isa.RAX), 4),
		isa.MakeMI(isa.SHR64I, isa.GPR(isa.RBX), 8),
		isa.MakeMI(isa.SAR64I, isa.GPR(isa.RDX), 8),
	)
	m.CPU.GPR[isa.RAX] = 3
	m.CPU.GPR[isa.RBX] = 0xFF00
	m.CPU.GPR[isa.RDX] = ^uint64(4095) // -4096
	run(t, m)
	if m.CPU.GPR[isa.RAX] != 48 || m.CPU.GPR[isa.RBX] != 0xFF || int64(m.CPU.GPR[isa.RDX]) != -16 {
		t.Errorf("shifts: %d %#x %d", m.CPU.GPR[isa.RAX], m.CPU.GPR[isa.RBX], int64(m.CPU.GPR[isa.RDX]))
	}
}

func TestCycleAccounting(t *testing.T) {
	m := newMachine(t, isa.MakeRM(isa.ADD64, isa.GPR(isa.RAX), isa.GPR(isa.RBX)))
	run(t, m)
	if m.Cycles == 0 || m.Instructions != 2 { // add + hlt
		t.Errorf("cycles=%d instructions=%d", m.Cycles, m.Instructions)
	}
	c := m.Cycles
	m.Charge(100)
	if m.Cycles != c+100 {
		t.Error("Charge did not add")
	}
}

// TestRunForStops checks the three ways the inner loop stops: an event
// (reported, not counted as retired), the instruction budget, and the
// virtual clock, which is checked after every retired instruction, so
// the first instruction runs whatever the clock says.
func TestRunForStops(t *testing.T) {
	nops := []isa.Inst{isa.MakeNullary(isa.NOP), isa.MakeNullary(isa.NOP),
		isa.MakeNullary(isa.NOP), isa.MakeNullary(isa.NOP)}
	m := newMachine(t, nops...)
	if n, k := m.RunFor(2, math.MaxUint64); n != 2 || k != machine.EvNone || m.Instructions != 2 {
		t.Fatalf("budget 2: %d retired, %v, %d instructions", n, k, m.Instructions)
	}
	if n, k := m.RunFor(100, math.MaxUint64); n != 2 || k != machine.EvHalt {
		t.Fatalf("to the hlt: %d retired, %v", n, k)
	}
	if ev := m.LastEvent(); ev.Kind != machine.EvHalt {
		t.Errorf("LastEvent after hlt: %v", ev.Kind)
	}

	m = newMachine(t, nops...)
	if n, _ := m.RunFor(100, 0); n != 1 {
		t.Errorf("clock already past: %d retired, want 1", n)
	}
	lat := m.Cycles
	if n, _ := m.RunFor(100, m.Cycles+2*lat); n != 2 || m.Instructions != 3 {
		t.Errorf("two instructions of clock: %d retired, %d instructions", n, m.Instructions)
	}
	if n, k := m.RunFor(0, math.MaxUint64); n != 0 || k != machine.EvNone || m.Instructions != 3 {
		t.Errorf("budget 0 ran %d instructions (%v)", n, k)
	}
}

// TestLastEventHasNoStaleDetail: every event overwrites all of the
// details, so a halt after a host call reports no host address, and a
// fault after that no stale kind.
func TestLastEventHasNoStaleDetail(t *testing.T) {
	callr := isa.MakeM(isa.CALLR, isa.GPR(isa.RAX))
	m := newMachine(t, callr)
	m.CPU.GPR[isa.RAX] = 0x7000_0000_0010
	if _, k := m.RunFor(10, math.MaxUint64); k != machine.EvHostCall || m.LastEvent().HostAddr != 0x7000_0000_0010 {
		t.Fatalf("call: %v at %#x", k, m.LastEvent().HostAddr)
	}
	l, _ := isa.EncodedLen(&callr)
	m.CPU.RIP = codeBase + uint64(l) // the hlt
	if ev := m.Step(); ev != (machine.Event{Kind: machine.EvHalt}) {
		t.Errorf("hlt after a host call: %+v", ev)
	}
	m.CPU.RIP = 0xDEAD0000
	if ev := m.Step(); ev.Kind != machine.EvFault || ev.Err == nil || ev.HostAddr != 0 {
		t.Errorf("fetch from an unmapped page: %+v", ev)
	}
}

// TestICachePages runs code that alternates between two pages, so the
// last-page front switches on every jump; checks that a decode that
// failed is not cached; and that InvalidateICache drops both the page
// table and the front.
func TestICachePages(t *testing.T) {
	const pageB = codeBase + mem.PageSize
	as := mem.NewAddressSpace()
	as.Map("code", codeBase, 2*mem.PageSize, mem.PermRWX)
	as.Map("stack", stackTop-0x10000, 0x10000, mem.PermRW)
	put := func(addr uint64, insts ...isa.Inst) {
		for i := range insts {
			insts[i].Addr = addr
			enc, err := isa.Encode(&insts[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := as.Write(addr, enc); err != nil {
				t.Fatal(err)
			}
			addr += uint64(len(enc))
		}
	}
	jmp := func(from, to uint64) isa.Inst {
		j := isa.MakeRel(isa.JMP, 0)
		l, _ := isa.EncodedLen(&j)
		j.Imm = int64(to) - int64(from+uint64(l))
		return j
	}
	// A: add rax, 1; jmp B.   B: add rax, 10; jmp A+0x100.
	// A+0x100: add rax, 100; hlt.
	add := func(v int64) isa.Inst { return isa.MakeMI(isa.ADD64I, isa.GPR(isa.RAX), v) }
	add1 := add(1)
	addLen, _ := isa.EncodedLen(&add1)
	put(codeBase, add1, jmp(codeBase+uint64(addLen), pageB))
	put(pageB, add(10), jmp(pageB+uint64(addLen), codeBase+0x100))
	put(codeBase+0x100, add(100), isa.MakeNullary(isa.HLT))

	m := machine.New(as)
	for round := 0; round < 3; round++ {
		m.CPU.RIP, m.CPU.GPR[isa.RAX] = codeBase, 0
		if _, k := m.RunFor(100, math.MaxUint64); k != machine.EvHalt || m.CPU.GPR[isa.RAX] != 111 {
			t.Fatalf("round %d: %v, rax %d", round, k, m.CPU.GPR[isa.RAX])
		}
	}

	// Patch every add, in both pages: the cached decodes keep running
	// until invalidated, and the first runs from page A, the front.
	put(codeBase, add(2))
	put(pageB, add(20))
	put(codeBase+0x100, add(200))
	m.CPU.RIP, m.CPU.GPR[isa.RAX] = codeBase, 0
	m.RunFor(100, math.MaxUint64)
	if m.CPU.GPR[isa.RAX] != 111 {
		t.Fatalf("before invalidation rax %d, want the cached 111", m.CPU.GPR[isa.RAX])
	}
	m.InvalidateICache()
	m.CPU.RIP, m.CPU.GPR[isa.RAX] = codeBase, 0
	m.RunFor(100, math.MaxUint64)
	if m.CPU.GPR[isa.RAX] != 222 {
		t.Fatalf("after invalidation rax %d, want 222", m.CPU.GPR[isa.RAX])
	}

	// A fetch fault is not cached: once the page is mapped and holds
	// code, the same address decodes.
	const pageC = codeBase + 4*mem.PageSize
	m.CPU.RIP = pageC
	if _, k := m.RunFor(100, math.MaxUint64); k != machine.EvFault {
		t.Fatalf("unmapped fetch: %v", k)
	}
	as.Map("late", pageC, mem.PageSize, mem.PermRWX)
	put(pageC, isa.MakeNullary(isa.HLT))
	m.CPU.RIP = pageC
	if _, k := m.RunFor(100, math.MaxUint64); k != machine.EvHalt {
		t.Fatalf("after mapping: %v", k)
	}
}
