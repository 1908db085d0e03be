// Package kernel simulates the OS layer between the machine and FPVM: it
// dispatches hardware events (#XF floating point traps, #BP breakpoints,
// syscalls) and delivers them to user space either through general-purpose
// POSIX-style signals (SIGFPE/SIGTRAP + sigreturn) or — when the FPVM
// kernel module is loaded and the process has registered through
// /dev/fpvm — through the short-circuit landing-pad path of §3.
//
// All costs are virtual cycles charged to the machine's clock, using the
// paper's measured constants by default.
package kernel

import (
	"bytes"
	"fmt"
	"math"

	"fpvm/internal/faultinject"
	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/obj"
)

// Signal numbers (Linux x64 values).
const (
	SIGTRAP = 5
	SIGFPE  = 8
	SIGSEGV = 11
)

// Costs models the cycle cost of each delegation mechanism. Defaults come
// from the paper's testbed (§2.3, §3, Figure 2/3).
type Costs struct {
	HWDispatch    uint64 // hardware -> kernel exception dispatch (~380)
	SignalDeliver uint64 // kernel -> user POSIX signal delivery (~3800)
	Sigreturn     uint64 // sigreturn syscall on handler exit (~1800)
	ShortDeliver  uint64 // short-circuit delivery incl. iretq (~250)
	ShortReturn   uint64 // unwind back to the faulting context (~100)
	LandingPad    uint64 // FPVM entry/exit stub ucontext save/restore (~60)
	SyscallBase   uint64 // syscall entry/exit (~200)

	// Future-work hardware (paper §8: RISC-V extensions): user-level FP
	// trap delivery that never enters the kernel, and hardware box-escape
	// assists. Deliver + return round trip.
	HWUserDeliver uint64 // direct hardware vector to the user handler (~100)
	HWUserReturn  uint64 // hardware return to the faulting context (~50)
}

// DefaultCosts returns the paper's testbed constants.
func DefaultCosts() Costs {
	return Costs{
		HWDispatch:    380,
		SignalDeliver: 3800,
		Sigreturn:     1800,
		ShortDeliver:  250,
		ShortReturn:   100,
		LandingPad:    60,
		SyscallBase:   200,
		HWUserDeliver: 100,
		HWUserReturn:  50,
	}
}

// Ucontext is the state snapshot a handler receives, mirroring the role of
// the POSIX ucontext_t (and the "fake" ucontext the landing pad builds).
// Handlers mutate it; the kernel (or exit stub) restores it to the CPU.
type Ucontext struct {
	CPU     machine.CPU
	Sig     int
	FPFlags uint32 // for SIGFPE: the raised MXCSR exception bits
}

// SignalHandler is a registered user-space signal handler. The *Ucontext
// is the process's one signal frame: it is valid only during the call and
// must not be retained, since the next delivery overwrites it.
type SignalHandler func(uc *Ucontext)

// Syscall numbers understood by the simulated kernel.
const (
	SysWrite = 1  // write(fd=rdi, buf=rsi, len=rdx) -> rax
	SysExit  = 60 // exit(code=rdi)
	SysBrk   = 12 // unused placeholder
)

// Stats counts delegation events for telemetry.
type Stats struct {
	FPTraps        uint64 // #XF events
	Breakpoints    uint64 // #BP events
	SignalsFPE     uint64 // delivered via POSIX path
	SignalsTRAP    uint64
	ShortCircuits  uint64 // delivered via kernel module path
	Syscalls       uint64
	HostCalls      uint64
	SignalCycles   uint64 // cycles spent in delegation+return, POSIX path
	ShortCycles    uint64 // cycles spent in delegation+return, module path
	DispatchCycles uint64 // hardware dispatch cycles (hw)

	ThreadsCreated  uint64 // clone() calls
	ContextSwitches uint64 // scheduler rotations

	HWUserDeliveries uint64 // future-work user-level FP trap deliveries
	BoxEscapes       uint64 // future-work hardware box-escape events

	// DeliveryRetries counts trap deliveries re-driven after an injected
	// kernel.deliver fault (a lost or corrupted delivery re-dispatched by
	// the hardware/kernel retry path).
	DeliveryRetries uint64
}

// Kernel is the per-boot kernel state.
type Kernel struct {
	Costs Costs

	// ModuleLoaded reports whether the FPVM kernel module (providing
	// /dev/fpvm and the #XF short-circuit path) is available.
	ModuleLoaded bool

	Stats Stats
}

// New returns a kernel with default costs and no module loaded.
func New() *Kernel {
	return &Kernel{Costs: DefaultCosts()}
}

// LoadModule makes /dev/fpvm available (insmod fpvm.ko).
func (k *Kernel) LoadModule() { k.ModuleLoaded = true }

// HostFunc implements a function in the host bridge range (libc/libm stubs
// and FPVM runtime entry points). It runs with the CPU at the callee: the
// return address is on the stack, arguments follow the System V-ish ABI
// (ints: rdi, rsi, rdx, rcx, r8, r9; floats: xmm0-7; return rax / xmm0).
type HostFunc func(p *Process) error

// Process couples a machine with kernel services: signal handlers, the
// /dev/fpvm registration, host functions, and standard output.
type Process struct {
	M *machine.Machine
	K *Kernel

	Name string

	handlers map[int]SignalHandler

	// FPVM short-circuit registration (ioctl on /dev/fpvm).
	fpvmRegistered bool
	fpvmEntry      func(uc *Ucontext)

	// Future-work hardware paths (§8): user-level trap vector and the
	// box-escape handler.
	hwUserEntry   func(uc *Ucontext)
	boxEscapeHook func(uc *Ucontext, addr uint64) error

	hostFuncs map[uint64]HostFunc

	// frame is the process's signal frame. Every delivery overwrites all
	// of it (snapshot), so no state of one delivery, or of another
	// process, survives into the next; deliveries never nest.
	frame Ucontext

	Stdout bytes.Buffer

	Exited   bool
	ExitCode int
	Err      error

	// BreakpointHook, when set, is consulted on #BP before signal
	// delivery (used by tests and tooling). Like a SignalHandler's, its
	// *Ucontext is valid only during the call and must not be retained.
	BreakpointHook func(uc *Ucontext) bool

	// OnThreadStart is invoked after a clone() creates a thread — the
	// interception point FPVM uses to account per-thread contexts
	// (paper §2.1).
	OnThreadStart func(tid int)

	// Inject, when set, is consulted at the kernel.deliver fault site on
	// every FP trap delivery. An injected fault models a lost delivery:
	// the kernel re-drives the dispatch (bounded), charging the dispatch
	// cost again and counting Stats.DeliveryRetries.
	Inject *faultinject.Injector

	// thread table (nil until the first clone; single-threaded processes
	// never pay for it).
	threads []*Thread
	current int
	quantum int
}

// NewProcess wraps m under kernel k.
func NewProcess(k *Kernel, m *machine.Machine, name string) *Process {
	return &Process{
		M:         m,
		K:         k,
		Name:      name,
		handlers:  make(map[int]SignalHandler),
		hostFuncs: make(map[uint64]HostFunc),
	}
}

// Sigaction registers a user-space handler for sig.
func (p *Process) Sigaction(sig int, h SignalHandler) { p.handlers[sig] = h }

// RegisterFPVM performs the /dev/fpvm open + ioctl registration of the
// process's landing-pad entry point. It fails if the module is not loaded,
// in which case the caller must fall back to signals (§3.1: unregistered
// processes keep normal delivery). As for a SignalHandler, the *Ucontext
// passed to entry is valid only during the call and must not be retained.
func (p *Process) RegisterFPVM(entry func(uc *Ucontext)) error {
	if !p.K.ModuleLoaded {
		return fmt.Errorf("kernel: /dev/fpvm not present (module not loaded)")
	}
	p.fpvmRegistered = true
	p.fpvmEntry = entry
	return nil
}

// UnregisterFPVM revokes the registration (device close / process exit).
func (p *Process) UnregisterFPVM() {
	p.fpvmRegistered = false
	p.fpvmEntry = nil
}

// FPVMRegistered reports whether the short-circuit path is active.
func (p *Process) FPVMRegistered() bool { return p.fpvmRegistered }

// EnableHWUserTraps installs the future-work hardware user-level FP trap
// vector: #XF is delivered straight to entry without entering the kernel
// (the paper's proposed RISC-V "very fast floating point trap support").
// The *Ucontext is valid only during the call, as for a SignalHandler.
func (p *Process) EnableHWUserTraps(entry func(uc *Ucontext)) {
	p.hwUserEntry = entry
}

// SetBoxEscapeHook installs the handler for hardware box-escape events
// (requires machine.BoxEscapeCheck); the handler demotes the word at addr
// and the faulting load re-executes. The *Ucontext is valid only during
// the call, as for a SignalHandler.
func (p *Process) SetBoxEscapeHook(h func(uc *Ucontext, addr uint64) error) {
	p.boxEscapeHook = h
}

// BindHost installs a host bridge function at addr (must be in the host
// range).
func (p *Process) BindHost(addr uint64, fn HostFunc) {
	p.hostFuncs[addr] = fn
}

// BindHostAuto installs fn at the next free host bridge address and
// returns it.
func (p *Process) BindHostAuto(fn HostFunc) uint64 {
	addr := obj.HostBase + uint64(len(p.hostFuncs)+1)*16
	for p.hostFuncs[addr] != nil {
		addr += 16
	}
	p.hostFuncs[addr] = fn
	return addr
}

// snapshot overwrites the process's signal frame with the current CPU
// state and returns it; a delivery allocates nothing. Every field of the
// frame is assigned on its own: a composite literal would be built in a
// zeroed temporary and copied twice.
func (p *Process) snapshot(sig int, flags uint32) *Ucontext {
	p.frame.CPU = p.M.CPU
	p.frame.Sig = sig
	p.frame.FPFlags = flags
	return &p.frame
}

// restore applies a (possibly mutated) Ucontext back to the CPU.
func (p *Process) restore(uc *Ucontext) { p.M.CPU = uc.CPU }

// maxRedeliveries bounds re-driven deliveries per trap so an injector
// armed with every=1 cannot livelock the kernel.
const maxRedeliveries = 16

// injectDeliveryFaults models lost trap deliveries: each injected
// kernel.deliver fault costs one extra hardware dispatch and is resolved
// by the retry. Delivery always eventually proceeds.
func (p *Process) injectDeliveryFaults() {
	for i := 0; i < maxRedeliveries; i++ {
		if p.Inject.Check(faultinject.SiteKernelDeliver, p.M.CPU.RIP) == nil {
			return
		}
		p.K.Stats.DeliveryRetries++
		p.M.Charge(p.K.Costs.HWDispatch)
		p.Inject.Resolve(faultinject.SiteKernelDeliver, faultinject.Retried)
	}
}

// deliverFPTrap routes a #XF event, which raised the unmasked
// exception bits flags, to user space.
func (p *Process) deliverFPTrap(flags uint32) error {
	k := p.K
	k.Stats.FPTraps++
	if p.Inject != nil {
		p.injectDeliveryFaults()
	}

	if p.hwUserEntry != nil {
		// Future-work hardware: the CPU vectors directly to user space;
		// the kernel is never involved.
		k.Stats.HWUserDeliveries++
		p.M.Charge(k.Costs.HWUserDeliver)
		uc := p.snapshot(SIGFPE, flags)
		p.hwUserEntry(uc)
		p.restore(uc)
		p.M.Charge(k.Costs.HWUserReturn)
		return nil
	}

	k.Stats.DispatchCycles += k.Costs.HWDispatch
	p.M.Charge(k.Costs.HWDispatch)

	if p.fpvmRegistered && k.ModuleLoaded {
		// Short-circuit path: minimal frame edit + iretq to the landing
		// pad, which builds a fake ucontext, runs the FPVM handler, and
		// unwinds directly back (no sigreturn).
		k.Stats.ShortCircuits++
		cost := k.Costs.ShortDeliver + k.Costs.LandingPad
		p.M.Charge(cost)
		uc := p.snapshot(SIGFPE, flags)
		p.fpvmEntry(uc)
		p.restore(uc)
		ret := k.Costs.LandingPad + k.Costs.ShortReturn
		p.M.Charge(ret)
		k.Stats.ShortCycles += cost + ret
		return nil
	}

	h, ok := p.handlers[SIGFPE]
	if !ok {
		return fmt.Errorf("kernel: unhandled SIGFPE at %#x (flags %#x)", p.M.CPU.RIP, flags)
	}
	k.Stats.SignalsFPE++
	p.M.Charge(k.Costs.SignalDeliver)
	uc := p.snapshot(SIGFPE, flags)
	h(uc)
	p.restore(uc)
	p.M.Charge(k.Costs.Sigreturn)
	k.Stats.SignalCycles += k.Costs.SignalDeliver + k.Costs.Sigreturn
	return nil
}

// deliverBreakpoint routes a #BP (int3) event.
func (p *Process) deliverBreakpoint() error {
	k := p.K
	k.Stats.Breakpoints++
	k.Stats.DispatchCycles += k.Costs.HWDispatch
	p.M.Charge(k.Costs.HWDispatch)

	if p.BreakpointHook != nil {
		uc := p.snapshot(SIGTRAP, 0)
		if p.BreakpointHook(uc) {
			p.restore(uc)
			return nil
		}
	}

	h, ok := p.handlers[SIGTRAP]
	if !ok {
		return fmt.Errorf("kernel: unhandled SIGTRAP at %#x", p.M.CPU.RIP)
	}
	k.Stats.SignalsTRAP++
	p.M.Charge(k.Costs.SignalDeliver)
	uc := p.snapshot(SIGTRAP, 0)
	h(uc)
	p.restore(uc)
	p.M.Charge(k.Costs.Sigreturn)
	k.Stats.SignalCycles += k.Costs.SignalDeliver + k.Costs.Sigreturn
	return nil
}

// syscall implements the tiny syscall surface.
func (p *Process) syscall() error {
	k := p.K
	k.Stats.Syscalls++
	p.M.Charge(k.Costs.SyscallBase)
	cpu := &p.M.CPU
	switch cpu.GPR[isa.RAX] {
	case SysWrite:
		buf := make([]byte, cpu.GPR[isa.RDX])
		if err := p.M.Mem.Read(cpu.GPR[isa.RSI], buf); err != nil {
			return err
		}
		p.Stdout.Write(buf)
		cpu.GPR[isa.RAX] = uint64(len(buf))
	case SysExit:
		// exit() ends the calling thread; the process ends with its last
		// thread (single-threaded processes exit immediately).
		p.exitThread(int(cpu.GPR[isa.RDI]))
	case SysExitGroup:
		p.Exited = true
		p.ExitCode = int(cpu.GPR[isa.RDI])
	case SysClone:
		p.M.Charge(800) // thread creation overhead
		return p.clone()
	default:
		return fmt.Errorf("kernel: unknown syscall %d", cpu.GPR[isa.RAX])
	}
	return nil
}

// hostCall executes a host bridge function and returns to the caller.
func (p *Process) hostCall(addr uint64) error {
	fn, ok := p.hostFuncs[addr]
	if !ok {
		return fmt.Errorf("kernel: call to unbound host address %#x", addr)
	}
	p.K.Stats.HostCalls++
	if err := fn(p); err != nil {
		return err
	}
	// Host functions "ret": pop the return address.
	sp := p.M.CPU.GPR[isa.RSP] // rsp
	retAddr, err := p.M.Mem.ReadUint64(sp)
	if err != nil {
		return err
	}
	p.M.CPU.GPR[isa.RSP] = sp + 8
	p.M.CPU.RIP = retAddr
	return nil
}

// deliverBoxEscape routes a hardware box-escape event for the NaN-boxed
// word at addr to its handler; the faulting load then re-executes.
func (p *Process) deliverBoxEscape(addr uint64) error {
	if p.boxEscapeHook == nil {
		return fmt.Errorf("box escape at %#x without a handler", addr)
	}
	p.K.Stats.BoxEscapes++
	p.M.Charge(p.K.Costs.HWUserDeliver + p.K.Costs.HWUserReturn)
	uc := p.snapshot(SIGTRAP, 0)
	if err := p.boxEscapeHook(uc, addr); err != nil {
		return err
	}
	p.restore(uc)
	p.M.WaiveNextEscape(addr)
	return nil
}

// Step advances the process by one machine event boundary. It returns
// false when the process has exited (or died with p.Err set).
func (p *Process) Step() bool {
	if p.Exited {
		return false
	}
	_, k := p.M.RunFor(1, math.MaxUint64)
	return p.dispatch(k)
}

// dispatch completes the event boundary at which the machine stopped
// with k (EvNone: an instruction retired): it handles the event, then
// lets the scheduler count the boundary. It returns false when the
// process has exited (or died with p.Err set).
func (p *Process) dispatch(k machine.EventKind) bool {
	var err error
	switch k {
	case machine.EvFPTrap:
		err = p.deliverFPTrap(p.M.LastEvent().FPFlags)
	case machine.EvBreakpoint:
		err = p.deliverBreakpoint()
	case machine.EvSyscall:
		err = p.syscall()
	case machine.EvHostCall:
		err = p.hostCall(p.M.LastEvent().HostAddr)
	case machine.EvHalt:
		p.Exited = true
	case machine.EvBoxEscape:
		err = p.deliverBoxEscape(p.M.LastEvent().EscapeAddr)
	case machine.EvFault:
		p.die(p.M.LastEvent().Err)
		return false
	}
	if err != nil {
		p.die(err)
		return false
	}
	p.maybeReschedule()
	return !p.Exited
}

func (p *Process) die(err error) {
	p.Exited = true
	p.ExitCode = 139
	p.Err = fmt.Errorf("process %s died: %w (rip=%#x)", p.Name, err, p.M.CPU.RIP)
}

// RunFor advances the process until it exits, max event boundaries have
// passed, or the virtual clock reaches until, which is checked at every
// boundary; the first boundary runs whatever the clock says. It returns
// the boundaries passed, counted as `for p.Step() { n++ }` counts them:
// a retired instruction is one, a handled event is one, and the boundary
// at which the process exits is not counted.
//
// A single-threaded process runs in the machine's inner loop and comes
// out only at events. With more than one thread the scheduler rotates
// every threadQuantum boundaries, so RunFor steps one boundary at a time.
func (p *Process) RunFor(max, until uint64) uint64 {
	var n uint64
	for n < max && !p.Exited {
		if len(p.threads) > 1 {
			if !p.Step() {
				break
			}
			n++
		} else {
			r, k := p.M.RunFor(max-n, until)
			n += r
			if k == machine.EvNone {
				break // the budget or the clock ran out
			}
			if !p.dispatch(k) {
				break
			}
			n++
		}
		if p.M.Cycles >= until {
			break
		}
	}
	return n
}

// Run steps the process until exit or maxSteps event boundaries (0 =
// unlimited). It returns the process error, if any.
func (p *Process) Run(maxSteps uint64) error {
	budget := maxSteps
	if budget == 0 {
		budget = math.MaxUint64
	}
	if p.RunFor(budget, math.MaxUint64) == budget {
		return fmt.Errorf("kernel: process %s exceeded %d steps", p.Name, maxSteps)
	}
	return p.Err
}
