package kernel_test

import (
	"math"
	"strings"
	"testing"

	"fpvm/internal/fpmath"
	"fpvm/internal/isa"
	"fpvm/internal/kernel"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/obj"
)

const codeBase = 0x400000

// buildProcess assembles insts (plus trailing hlt) into a fresh process.
func buildProcess(t *testing.T, k *kernel.Kernel, insts ...isa.Inst) *kernel.Process {
	t.Helper()
	as := mem.NewAddressSpace()
	var code []byte
	addr := uint64(codeBase)
	for i := range insts {
		insts[i].Addr = addr
		enc, err := isa.Encode(&insts[i])
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, enc...)
		addr += uint64(len(enc))
	}
	hlt := isa.MakeNullary(isa.HLT)
	enc, _ := isa.Encode(&hlt)
	code = append(code, enc...)
	as.Map("code", codeBase, uint64(len(code)), mem.PermRX)
	as.Map("code-init", codeBase, uint64(len(code)), mem.PermRWX)
	if err := as.Write(codeBase, code); err != nil {
		t.Fatal(err)
	}
	as.Map("code", codeBase, uint64(len(code)), mem.PermRX)
	as.Map("stack", 0x600000, 0x10000, mem.PermRW)
	as.Map("data", 0x800000, 4096, mem.PermRW)

	m := machine.New(as)
	m.CPU.RIP = codeBase
	m.CPU.GPR[isa.RSP] = 0x60F000
	return kernel.NewProcess(k, m, "test")
}

func divsdTrap() isa.Inst {
	return isa.MakeRM(isa.DIVSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1))
}

func TestSignalDelivery(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k, divsdTrap())
	p.M.CPU.MXCSR = machine.MXCSRTrapAll
	p.M.CPU.XMM[0][0] = fpmath.Bits(1)
	p.M.CPU.XMM[1][0] = fpmath.Bits(3)

	handled := 0
	p.Sigaction(kernel.SIGFPE, func(uc *kernel.Ucontext) {
		handled++
		if uc.Sig != kernel.SIGFPE || uc.FPFlags&fpmath.ExPrecision == 0 {
			t.Errorf("uc: sig=%d flags=%#x", uc.Sig, uc.FPFlags)
		}
		// Emulate: write the quotient, skip the instruction.
		uc.CPU.XMM[0][0] = fpmath.Bits(1.0 / 3.0)
		in, err := p.M.FetchDecode(uc.CPU.RIP)
		if err != nil {
			t.Fatal(err)
		}
		uc.CPU.RIP += uint64(in.Len)
	})
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if handled != 1 {
		t.Fatalf("handler ran %d times", handled)
	}
	if got := fpmath.FromBits(p.M.CPU.XMM[0][0]); got != 1.0/3.0 {
		t.Errorf("result %v", got)
	}
	if k.Stats.SignalsFPE != 1 || k.Stats.FPTraps != 1 {
		t.Errorf("stats: %+v", k.Stats)
	}
	wantCycles := k.Costs.SignalDeliver + k.Costs.Sigreturn
	if k.Stats.SignalCycles != wantCycles {
		t.Errorf("signal cycles %d want %d", k.Stats.SignalCycles, wantCycles)
	}
}

func TestShortCircuitDelivery(t *testing.T) {
	k := kernel.New()
	k.LoadModule()
	p := buildProcess(t, k, divsdTrap())
	p.M.CPU.MXCSR = machine.MXCSRTrapAll
	p.M.CPU.XMM[0][0] = fpmath.Bits(1)
	p.M.CPU.XMM[1][0] = fpmath.Bits(3)

	if err := p.RegisterFPVM(func(uc *kernel.Ucontext) {
		uc.CPU.XMM[0][0] = fpmath.Bits(1.0 / 3.0)
		in, _ := p.M.FetchDecode(uc.CPU.RIP)
		uc.CPU.RIP += uint64(in.Len)
	}); err != nil {
		t.Fatal(err)
	}
	if !p.FPVMRegistered() {
		t.Fatal("not registered")
	}
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Stats.ShortCircuits != 1 || k.Stats.SignalsFPE != 0 {
		t.Errorf("stats: %+v", k.Stats)
	}
	if k.Stats.ShortCycles >= k.Costs.SignalDeliver {
		t.Errorf("short path cost %d not below signal delivery %d",
			k.Stats.ShortCycles, k.Costs.SignalDeliver)
	}
}

func TestRegisterWithoutModuleFails(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k)
	if err := p.RegisterFPVM(func(*kernel.Ucontext) {}); err == nil {
		t.Error("registration without module succeeded")
	}
	p.UnregisterFPVM()
	if p.FPVMRegistered() {
		t.Error("still registered")
	}
}

func TestUnhandledSignalKillsProcess(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k, divsdTrap())
	p.M.CPU.MXCSR = machine.MXCSRTrapAll
	p.M.CPU.XMM[0][0] = fpmath.Bits(1)
	p.M.CPU.XMM[1][0] = fpmath.Bits(3)
	err := p.Run(0)
	if err == nil || !strings.Contains(err.Error(), "SIGFPE") {
		t.Errorf("err = %v", err)
	}
}

func TestSyscallWriteExit(t *testing.T) {
	k := kernel.New()
	// write(1, buf, 5); exit(3)
	p := buildProcess(t, k,
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysWrite),
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), 1),
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RSI), 0x800000),
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDX), 5),
		isa.MakeNullary(isa.SYSCALL),
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysExit),
		isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDI), 3),
		isa.MakeNullary(isa.SYSCALL),
	)
	if err := p.M.Mem.Write(0x800000, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if p.Stdout.String() != "hello" {
		t.Errorf("stdout %q", p.Stdout.String())
	}
	if p.ExitCode != 3 {
		t.Errorf("exit %d", p.ExitCode)
	}
	if k.Stats.Syscalls != 2 {
		t.Errorf("syscalls %d", k.Stats.Syscalls)
	}
}

func TestBreakpointHook(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k, isa.MakeNullary(isa.INT3))
	hooked := false
	p.BreakpointHook = func(uc *kernel.Ucontext) bool {
		hooked = true
		return true
	}
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Error("hook not invoked")
	}
	if k.Stats.Breakpoints != 1 {
		t.Errorf("breakpoints %d", k.Stats.Breakpoints)
	}
}

func TestSIGTRAPDelivery(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k, isa.MakeNullary(isa.INT3))
	got := 0
	p.Sigaction(kernel.SIGTRAP, func(uc *kernel.Ucontext) { got++ })
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if got != 1 || k.Stats.SignalsTRAP != 1 {
		t.Errorf("trap deliveries %d / %d", got, k.Stats.SignalsTRAP)
	}
}

func TestHostCall(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k, isa.MakeM(isa.CALLR, isa.GPR(isa.RAX)))
	called := false
	addr := p.BindHostAuto(func(pp *kernel.Process) error {
		called = true
		pp.M.CPU.GPR[isa.RBX] = 42
		return nil
	})
	if addr < obj.HostBase {
		t.Fatalf("host addr %#x below host base", addr)
	}
	p.M.CPU.GPR[isa.RAX] = addr
	if err := p.Run(0); err != nil {
		t.Fatal(err)
	}
	if !called || p.M.CPU.GPR[isa.RBX] != 42 {
		t.Error("host function did not run")
	}
	if k.Stats.HostCalls != 1 {
		t.Errorf("host calls %d", k.Stats.HostCalls)
	}
}

func TestUnboundHostCallDies(t *testing.T) {
	k := kernel.New()
	p := buildProcess(t, k, isa.MakeM(isa.CALLR, isa.GPR(isa.RAX)))
	p.M.CPU.GPR[isa.RAX] = obj.HostBase + 0x1234
	if err := p.Run(0); err == nil {
		t.Error("call to unbound host address succeeded")
	}
}

func TestMaxStepsGuard(t *testing.T) {
	k := kernel.New()
	// Infinite loop: jmp self (-jmpLen displacement).
	jmp := isa.MakeRel(isa.JMP, 0)
	l, _ := isa.EncodedLen(&jmp)
	jmp.Imm = -int64(l)
	p := buildProcess(t, k, jmp)
	if err := p.Run(1000); err == nil {
		t.Error("runaway loop not bounded")
	}
}

// TestRunBudgetEdges pins how Run and RunFor count event boundaries: a
// retired instruction is one, a handled event is one, and the boundary
// at which the process exits is not counted. Run fails after exactly
// maxSteps live boundaries, and not when the process exits at the next
// one.
func TestRunBudgetEdges(t *testing.T) {
	// Live boundaries: two movs, one write syscall (an event), one nop;
	// the trailing hlt is the exit boundary.
	build := func() (*kernel.Process, *kernel.Kernel) {
		k := kernel.New()
		return buildProcess(t, k,
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RAX), kernel.SysWrite),
			isa.MakeMI(isa.MOV64RI, isa.GPR(isa.RDX), 0),
			isa.MakeNullary(isa.SYSCALL),
			isa.MakeNullary(isa.NOP),
		), k
	}
	for _, c := range []struct {
		max       uint64
		fail      bool
		insts     uint64 // instructions retired when Run returns
		syscalls  uint64
		exitAfter bool
	}{
		{max: 2, fail: true, insts: 2},
		{max: 3, fail: true, insts: 3, syscalls: 1},
		{max: 4, fail: true, insts: 4, syscalls: 1},
		{max: 5, insts: 5, syscalls: 1, exitAfter: true},
		{max: 0, insts: 5, syscalls: 1, exitAfter: true},
	} {
		p, k := build()
		err := p.Run(c.max)
		if (err != nil) != c.fail || p.M.Instructions != c.insts || k.Stats.Syscalls != c.syscalls || p.Exited != c.exitAfter {
			t.Errorf("Run(%d): err %v, %d instructions, %d syscalls, exited %v; want fail %v, %d, %d, %v",
				c.max, err, p.M.Instructions, k.Stats.Syscalls, p.Exited, c.fail, c.insts, c.syscalls, c.exitAfter)
		}
	}

	// RunFor reports the live boundaries, stops on the clock at the
	// first boundary that reaches it, and a clock at MaxUint64 never
	// stops it.
	p, _ := build()
	if n := p.RunFor(3, math.MaxUint64); n != 3 || p.M.Instructions != 3 {
		t.Errorf("RunFor(3): %d boundaries, %d instructions", n, p.M.Instructions)
	}
	if n := p.RunFor(100, math.MaxUint64); n != 1 || !p.Exited {
		t.Errorf("RunFor to the exit: %d boundaries, exited %v", n, p.Exited)
	}
	if n := p.RunFor(100, math.MaxUint64); n != 0 {
		t.Errorf("RunFor after the exit: %d boundaries", n)
	}
	p, _ = build()
	if n := p.RunFor(100, p.M.Cycles+1); n != 1 || p.M.Instructions != 1 {
		t.Errorf("one cycle of clock: %d boundaries, %d instructions", n, p.M.Instructions)
	}
	if n := p.RunFor(100, p.M.Cycles); n != 1 {
		t.Errorf("clock already reached: %d boundaries, want the first one", n)
	}
	// The syscall boundary is where the clock runs out.
	if n := p.RunFor(100, p.M.Cycles+2); n != 1 || p.K.Stats.Syscalls != 1 {
		t.Errorf("clock inside the syscall: %d boundaries, %d syscalls", n, p.K.Stats.Syscalls)
	}
}

// trappingProcess builds a process whose first instruction is a divsd that
// raises an unmasked #XF every time it runs.
func trappingProcess(t *testing.T, k *kernel.Kernel) *kernel.Process {
	t.Helper()
	p := buildProcess(t, k, divsdTrap())
	p.M.CPU.MXCSR = machine.MXCSRTrapAll
	p.M.CPU.XMM[0][0] = fpmath.Bits(1)
	p.M.CPU.XMM[1][0] = fpmath.Bits(3)
	return p
}

// TestFPTrapDeliveryAllocatesNothing re-drives one divsd #XF through both
// delivery paths: the process's signal frame is reused, so a delivery
// heap-allocates nothing.
func TestFPTrapDeliveryAllocatesNothing(t *testing.T) {
	for _, short := range []bool{false, true} {
		k := kernel.New()
		p := trappingProcess(t, k)
		// The handler points RIP back at the divsd, so every Step traps.
		handler := func(uc *kernel.Ucontext) { uc.CPU.RIP = codeBase }
		if short {
			k.LoadModule()
			if err := p.RegisterFPVM(handler); err != nil {
				t.Fatal(err)
			}
		} else {
			p.Sigaction(kernel.SIGFPE, handler)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if !p.Step() {
				t.Fatalf("process stopped: %v", p.Err)
			}
		})
		if allocs != 0 {
			t.Errorf("short=%v: %v allocs per delivery, want 0", short, allocs)
		}
		// RunFor delivers the same traps from its own loop.
		allocs = testing.AllocsPerRun(10, func() {
			if n := p.RunFor(100, math.MaxUint64); n != 100 {
				t.Fatalf("RunFor passed %d boundaries, want 100: %v", n, p.Err)
			}
		})
		if allocs != 0 {
			t.Errorf("short=%v: %v allocs per 100 deliveries through RunFor, want 0", short, allocs)
		}
		if k.Stats.FPTraps < 100 || k.Stats.ShortCircuits+k.Stats.SignalsFPE != k.Stats.FPTraps {
			t.Errorf("short=%v: stats %+v", short, k.Stats)
		}
	}
}

// TestStepAllocatesNothing steps a warmed loop of integer, memory and
// masked FP instructions: the steady-state step loop allocates nothing.
func TestStepAllocatesNothing(t *testing.T) {
	k := kernel.New()
	body := []isa.Inst{
		isa.MakeMI(isa.ADD64I, isa.GPR(isa.RAX), 1),
		isa.MakeRM(isa.MOV64MR, isa.GPR(isa.RAX), isa.Mem(isa.RBX, 8)),
		isa.MakeRM(isa.MOV64RM, isa.GPR(isa.RCX), isa.Mem(isa.RBX, 8)),
		isa.MakeRM(isa.MOVSDXM, isa.XMM(isa.XMM1), isa.Mem(isa.RBX, 16)),
		isa.MakeRM(isa.ADDSD, isa.XMM(isa.XMM0), isa.XMM(isa.XMM1)),
		isa.MakeRM(isa.MOVSDMX, isa.XMM(isa.XMM0), isa.Mem(isa.RBX, 24)),
		isa.MakeM(isa.PUSH, isa.GPR(isa.RAX)),
		isa.MakeM(isa.POP, isa.GPR(isa.RDX)),
	}
	size := 0
	for i := range body {
		l, err := isa.EncodedLen(&body[i])
		if err != nil {
			t.Fatal(err)
		}
		size += l
	}
	jmp := isa.MakeRel(isa.JMP, 0)
	l, _ := isa.EncodedLen(&jmp)
	jmp.Imm = -int64(size + l)
	p := buildProcess(t, k, append(body, jmp)...)
	p.M.CPU.GPR[isa.RBX] = 0x800000
	if err := p.M.Mem.WriteUint64(0x800010, fpmath.Bits(0.5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4*len(body); i++ { // decode every instruction once
		p.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if !p.Step() {
			t.Fatalf("process stopped: %v", p.Err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per step, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(10, func() {
		if n := p.RunFor(1000, math.MaxUint64); n != 1000 {
			t.Fatalf("RunFor passed %d boundaries, want 1000: %v", n, p.Err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per 1000 boundaries through RunFor, want 0", allocs)
	}
}

// TestSignalFrameOverwrittenPerDelivery checks the frame reuse cannot
// leak state: a delivery sees only the current CPU state and trap, never
// what the previous handler left in the frame, and a forked child gets
// a frame of its own.
func TestSignalFrameOverwrittenPerDelivery(t *testing.T) {
	k := kernel.New()
	p := trappingProcess(t, k)
	var frames []*kernel.Ucontext
	p.Sigaction(kernel.SIGFPE, func(uc *kernel.Ucontext) {
		frames = append(frames, uc)
		if uc.Sig != kernel.SIGFPE || uc.FPFlags&fpmath.ExPrecision == 0 {
			t.Errorf("delivery %d: sig=%d flags=%#x", len(frames), uc.Sig, uc.FPFlags)
		}
		if uc.CPU != p.M.CPU {
			t.Errorf("delivery %d: frame CPU differs from the trapping CPU", len(frames))
		}
		// Scribble over the fields the kernel does not restore.
		uc.Sig, uc.FPFlags = -1, 0xdead
		uc.CPU.RIP = codeBase
	})
	for i := 0; i < 2; i++ {
		p.Step()
	}
	child := p.Fork("child")
	child.Sigaction(kernel.SIGFPE, func(uc *kernel.Ucontext) { frames = append(frames, uc) })
	child.Step()
	if len(frames) != 3 {
		t.Fatalf("%d deliveries, want 3", len(frames))
	}
	if frames[0] != frames[1] {
		t.Error("one process used two signal frames")
	}
	if frames[2] == frames[0] {
		t.Error("forked child shares its parent's signal frame")
	}
}
