// Package machine implements the simulated CPU: a fetch/decode/execute
// interpreter over the isa package with x64-faithful RFLAGS, MXCSR
// (exception status + mask bits), precise SSE floating point exception
// semantics (#XF raised before the destination is written), int3
// breakpoints (#BP), syscalls, and virtual cycle accounting.
//
// The machine itself is kernel-agnostic: RunFor executes instructions
// until one raises an event and the simulated kernel (internal/kernel)
// decides how to dispatch it, exactly as hardware raises exceptions for
// the OS to route.
package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fpvm/internal/fpmath"
	"fpvm/internal/isa"
	"fpvm/internal/mem"
	"fpvm/internal/nanbox"
	"fpvm/internal/obj"
)

// RFLAGS bits (x64 layout).
const (
	FlagCF uint64 = 1 << 0
	FlagPF uint64 = 1 << 2
	FlagZF uint64 = 1 << 6
	FlagSF uint64 = 1 << 7
	FlagOF uint64 = 1 << 11
)

// MXCSR layout (x64): status bits 0-5 (IE DE ZE OE UE PE), DAZ bit 6,
// mask bits 7-12 (IM DM ZM OM UM PM), rounding control 13-14, FTZ 15.
const (
	MXCSRStatusMask uint32 = 0x3F
	MXCSRMaskShift         = 7

	// MXCSRDefault masks all exceptions (hardware reset value 0x1F80).
	MXCSRDefault uint32 = 0x1F80

	// MXCSRTrapAll unmasks every exception, the configuration FPVM
	// installs so that Invalid/Denorm/DivZero/Overflow/Underflow/Precision
	// all trap (§2.3).
	MXCSRTrapAll uint32 = 0x0000
)

// CPU is the architectural register state. XMM registers hold two 64-bit
// lanes; lane 0 is the scalar double lane.
type CPU struct {
	GPR    [isa.NumGPR]uint64
	XMM    [isa.NumXMM][2]uint64
	RIP    uint64
	RFLAGS uint64
	MXCSR  uint32
}

// XMMLo returns the low lane of xmm register r as a float64 bit pattern.
func (c *CPU) XMMLo(r isa.Reg) uint64 { return c.XMM[r][0] }

// SetXMMLo sets the low lane of xmm register r.
func (c *CPU) SetXMMLo(r isa.Reg, v uint64) { c.XMM[r][0] = v }

// EventKind discriminates what stopped sequential execution.
type EventKind uint8

const (
	EvNone       EventKind = iota
	EvFPTrap               // #XF: unmasked SSE FP exception
	EvBreakpoint           // #BP: int3
	EvSyscall              // syscall instruction
	EvHalt                 // hlt
	EvHostCall             // control transferred into the host bridge range
	EvFault                // memory/decode fault (process dies)
	EvBoxEscape            // hardware NaN-box escape detection (future-work ISA)
)

func (k EventKind) String() string {
	switch k {
	case EvNone:
		return "none"
	case EvFPTrap:
		return "#XF"
	case EvBreakpoint:
		return "#BP"
	case EvSyscall:
		return "syscall"
	case EvHalt:
		return "hlt"
	case EvHostCall:
		return "hostcall"
	case EvFault:
		return "fault"
	case EvBoxEscape:
		return "box-escape"
	}
	return "event?"
}

// Event reports why the machine stopped: the kind and its details.
type Event struct {
	Kind EventKind

	// EvFPTrap: the raised (unmasked) exception flags (RIP still points
	// at the faulting instruction, per x64 fault semantics).
	FPFlags uint32

	// EvHostCall: the target host address (RIP already at the callee; the
	// return address is on the stack).
	HostAddr uint64

	// EvFault: underlying error.
	Err error

	// EvBoxEscape: the 8-byte-aligned address holding the NaN-boxed word
	// an integer load was about to observe.
	EscapeAddr uint64
}

// Tracer observes memory traffic; the PIN-like profiler (§5.1) installs
// one. XMMClass reports whether the access moved XMM (floating point)
// data; FPTyped reports a "scalar double"-typed store (movsd and friends),
// which is what the profiler uses to mark blocks as containing floats.
type Tracer interface {
	OnStore(rip, addr uint64, size int, xmm, fpTyped bool)
	OnLoad(rip, addr uint64, size int, xmm bool)
}

// Machine couples a CPU with an address space.
type Machine struct {
	CPU    CPU
	Mem    *mem.AddressSpace
	Cycles uint64 // virtual cycle counter

	// Instructions counts retired instructions (including those that
	// raised events after side effects, e.g. syscall).
	Instructions uint64

	// FPInstructions counts retired FP-arithmetic instructions (the
	// denominators for the paper's per-instruction amortizations).
	FPInstructions uint64

	Tracer Tracer

	// BoxEscapeCheck models the future-work hardware extension the paper
	// proposes for RISC-V ("hardware support to replace correctness
	// traps"): every integer load checks whether the 8-byte-aligned word
	// it reads matches the NaN-box pattern and faults precisely (before
	// the destination is written) when it does, so no binary patching is
	// needed for memory-escape correctness.
	BoxEscapeCheck bool

	// escWaiveAddr/escWaiveValid implement the hardware's one-shot resume:
	// after the escape handler runs, the faulting load must complete even
	// if the word still matches the pattern (an application NaN that
	// collided with it). WaiveNextEscape arms it.
	escWaiveAddr  uint64
	escWaiveValid bool

	// event holds the details of the last event an instruction raised;
	// every non-EvNone kind overwrites all of it (LastEvent).
	event Event

	// icache caches decoded instructions by address: a table per code
	// page, indexed by the offset in the page, behind a front for the
	// last page used, so straight-line code indexes an array. Each slot
	// holds the decoded instruction together with the handler decode
	// chose for it from its opcode and r/m kind (see handlers), so a
	// step is one indirect call on a cached slot: no opcode switch runs
	// and no instruction is copied. It is a host-side cache with no
	// virtual-cycle cost (real hardware decodes in the pipeline). It must
	// be invalidated when code changes (InvalidateICache) — the binary
	// rewriter always produces fresh images, so self-modifying code is
	// not supported.
	icache map[uint64]*icachePage
	icPN   uint64      // page number of icPage
	icPage *icachePage // last page used; nil when empty

	// scratch decode buffer
	fetchBuf [isa.MaxInstLen]byte
}

// icachePage holds the decoded instructions starting in one code page,
// by offset; nil where nothing is cached.
type icachePage [mem.PageSize]*decoded

// New returns a machine over as with default (all-masked) MXCSR.
func New(as *mem.AddressSpace) *Machine {
	m := &Machine{Mem: as}
	m.CPU.MXCSR = MXCSRDefault
	return m
}

// Reset clears register state (keeping memory) and re-masks MXCSR.
func (m *Machine) Reset() {
	m.CPU = CPU{MXCSR: MXCSRDefault}
	m.Cycles = 0
	m.Instructions = 0
	m.FPInstructions = 0
}

// Charge adds n virtual cycles (used by the kernel and FPVM runtime to
// account for their own work on this CPU's clock).
func (m *Machine) Charge(n uint64) { m.Cycles += n }

// FetchDecode decodes the instruction at addr without executing it.
func (m *Machine) FetchDecode(addr uint64) (isa.Inst, error) {
	n, err := m.Mem.Fetch(addr, m.fetchBuf[:])
	if err != nil {
		return isa.Inst{}, err
	}
	return isa.Decode(m.fetchBuf[:n], addr)
}

// InvalidateICache drops all host-side cached decodes (call after
// loading or patching code).
func (m *Machine) InvalidateICache() { m.icache, m.icPage = nil, nil }

// LastEvent returns the details of the event that last stopped the
// machine (RunFor's or Step's non-EvNone kind).
func (m *Machine) LastEvent() Event { return m.event }

// WaiveNextEscape lets the next integer load of the 8-byte block at addr
// proceed without the box-escape check (the hardware resume-after-handler
// semantics; needed when the pattern was an application NaN collision).
func (m *Machine) WaiveNextEscape(addr uint64) {
	m.escWaiveAddr = addr &^ 7
	m.escWaiveValid = true
}

// Step executes one instruction. On EvNone the instruction retired; any
// other kind describes the trap/exit. Faulting FP instructions do not
// retire (RIP unchanged, destination unwritten), matching x64.
func (m *Machine) Step() Event {
	if _, k := m.RunFor(1, math.MaxUint64); k != EvNone {
		return m.event
	}
	return Event{}
}

// RunFor executes instructions until one raises an event, max of them
// have retired, or the virtual clock reaches until, checked after every
// retired instruction; the first instruction runs whatever the clock.
// It returns how many retired without an event and the kind of the
// event that stopped it (EvNone when a budget did), whose details
// LastEvent holds. The instruction that raises the event is not
// counted, even when it retired (int3, syscall, a call into the host
// bridge).
func (m *Machine) RunFor(max, until uint64) (retired uint64, k EventKind) {
	for retired < max {
		rip := m.CPU.RIP
		var d *decoded
		if pg := m.icPage; pg != nil && rip/mem.PageSize == m.icPN {
			d = pg[rip&mem.PageMask]
		}
		if d == nil {
			if d = m.decode(rip); d == nil {
				return retired, EvFault
			}
		}
		if k = d.exec(m, d); k != EvNone {
			return retired, k
		}
		retired++
		if m.Cycles >= until {
			break
		}
	}
	return retired, EvNone
}

// decode returns the instruction at rip from its icache page, decoding
// it and choosing its handler on a miss, and makes that page the front.
// A failed decode is not cached: it returns nil with the EvFault
// recorded.
func (m *Machine) decode(rip uint64) *decoded {
	pn := rip / mem.PageSize
	page := m.icache[pn]
	if page == nil {
		if m.icache == nil {
			m.icache = make(map[uint64]*icachePage)
		}
		page = new(icachePage)
		m.icache[pn] = page
	}
	m.icPN, m.icPage = pn, page
	slot := &page[rip&mem.PageMask]
	if *slot == nil {
		in, err := m.FetchDecode(rip)
		if err != nil {
			m.event = Event{Kind: EvFault, Err: err}
			return nil
		}
		*slot = newDecoded(in)
	}
	return *slot
}

// effectiveAddr computes the address of a memory operand for instruction
// in (RIP-relative references resolve against the next instruction).
func (m *Machine) effectiveAddr(in *isa.Inst, o isa.Operand) uint64 {
	if o.RIPRel {
		return in.Addr + uint64(in.Len) + uint64(int64(o.Disp))
	}
	var a uint64
	if o.Base != isa.NoReg {
		a = m.CPU.GPR[o.Base]
	}
	if o.Index != isa.NoReg {
		a += m.CPU.GPR[o.Index] * uint64(o.Scale)
	}
	return a + uint64(int64(o.Disp))
}

// EffectiveAddr exposes effective address computation for the FPVM
// runtime's operand binding step.
func (m *Machine) EffectiveAddr(in *isa.Inst, o isa.Operand) uint64 {
	return m.effectiveAddr(in, o)
}

// escapeFault is the internal error carrying a hardware box-escape hit;
// the fault dispatcher turns it into EvBoxEscape.
type escapeFault struct{ addr uint64 }

func (e *escapeFault) Error() string {
	return fmt.Sprintf("nan-box escape at %#x", e.addr)
}

// ea returns the address of d's memory operand.
func (m *Machine) ea(d *decoded) uint64 { return m.effectiveAddr(&d.Inst, d.RMOp) }

// load reads d's memory operand, d.size bytes wide (8 where the opcode
// names no width), zero-extended to 64 bits. An integer load (xmm false)
// runs the box-escape check first when it is on; the tracer sees a load
// once it has succeeded.
func (m *Machine) load(d *decoded, xmm bool) (uint64, error) {
	addr := m.ea(d)
	if m.BoxEscapeCheck && !xmm {
		block := addr &^ 7
		if m.escWaiveValid && m.escWaiveAddr == block {
			m.escWaiveValid = false
		} else if w, err := m.Mem.ReadUint64(block); err == nil && nanbox.IsBoxPattern(w) {
			return 0, &escapeFault{addr: block}
		}
	}
	v, err := m.read(addr, d.size)
	if err != nil {
		return 0, err
	}
	if m.Tracer != nil {
		m.Tracer.OnLoad(d.Addr, addr, int(d.size), xmm)
	}
	return v, nil
}

// store writes v to d's memory operand, d.size bytes wide, and reports
// it to the tracer once it has succeeded.
func (m *Machine) store(d *decoded, v uint64, xmm, fpTyped bool) error {
	addr := m.ea(d)
	if err := m.write(addr, d.size, v); err != nil {
		return err
	}
	if m.Tracer != nil {
		m.Tracer.OnStore(d.Addr, addr, int(d.size), xmm, fpTyped)
	}
	return nil
}

// load128 reads d's 128-bit memory operand as two 8-byte loads, low lane
// first.
func (m *Machine) load128(d *decoded) ([2]uint64, error) {
	addr := m.ea(d)
	lo, err := m.read(addr, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	hi, err := m.read(addr+8, 8)
	if err != nil {
		return [2]uint64{}, err
	}
	if m.Tracer != nil {
		m.Tracer.OnLoad(d.Addr, addr, 16, true)
	}
	return [2]uint64{lo, hi}, nil
}

// store128 writes v to d's 128-bit memory operand as two 8-byte stores,
// low lane first: a fault in the high lane leaves the low one written.
func (m *Machine) store128(d *decoded, v [2]uint64, fpTyped bool) error {
	addr := m.ea(d)
	if err := m.write(addr, 8, v[0]); err != nil {
		return err
	}
	if err := m.write(addr+8, 8, v[1]); err != nil {
		return err
	}
	if m.Tracer != nil {
		m.Tracer.OnStore(d.Addr, addr, 16, true, fpTyped)
	}
	return nil
}

// read returns the size-byte little-endian value at addr (8 bytes for
// size 0). It takes the page-TLB hit in place when the access stays
// inside one page; a miss, a straddle or a fault goes through the
// address space's access path, which refills the TLB or reports the
// fault.
func (m *Machine) read(addr uint64, size uint8) (uint64, error) {
	off := addr & mem.PageMask
	switch size {
	case 1:
		if pg := m.Mem.Readable(addr); pg != nil {
			return uint64(pg[off]), nil
		}
		v, err := m.Mem.ReadUint8(addr)
		return uint64(v), err
	case 2:
		if pg := m.Mem.Readable(addr); pg != nil && off <= mem.PageSize-2 {
			return uint64(binary.LittleEndian.Uint16(pg[off:])), nil
		}
		v, err := m.Mem.ReadUint16(addr)
		return uint64(v), err
	case 4:
		if pg := m.Mem.Readable(addr); pg != nil && off <= mem.PageSize-4 {
			return uint64(binary.LittleEndian.Uint32(pg[off:])), nil
		}
		v, err := m.Mem.ReadUint32(addr)
		return uint64(v), err
	}
	if pg := m.Mem.Readable(addr); pg != nil && off <= mem.PageSize-8 {
		return binary.LittleEndian.Uint64(pg[off:]), nil
	}
	return m.Mem.ReadUint64(addr)
}

// write stores the low size bytes of v at addr (8 bytes for size 0),
// little-endian: in place on a page-TLB hit that stays inside one
// allocated page, through the access path otherwise, which allocates the
// page on its first write, refills the TLB or reports the fault.
func (m *Machine) write(addr uint64, size uint8, v uint64) error {
	off := addr & mem.PageMask
	switch size {
	case 1:
		if pg := m.Mem.Writable(addr); pg != nil {
			pg[off] = uint8(v)
			return nil
		}
		return m.Mem.WriteUint8(addr, uint8(v))
	case 2:
		if pg := m.Mem.Writable(addr); pg != nil && off <= mem.PageSize-2 {
			binary.LittleEndian.PutUint16(pg[off:], uint16(v))
			return nil
		}
		return m.Mem.WriteUint16(addr, uint16(v))
	case 4:
		if pg := m.Mem.Writable(addr); pg != nil && off <= mem.PageSize-4 {
			binary.LittleEndian.PutUint32(pg[off:], uint32(v))
			return nil
		}
		return m.Mem.WriteUint32(addr, uint32(v))
	}
	if pg := m.Mem.Writable(addr); pg != nil && off <= mem.PageSize-8 {
		binary.LittleEndian.PutUint64(pg[off:], v)
		return nil
	}
	return m.Mem.WriteUint64(addr, v)
}

// push pushes a 64-bit value on the stack.
func (m *Machine) push(v uint64) error {
	m.CPU.GPR[isa.RSP] -= 8
	return m.write(m.CPU.GPR[isa.RSP], 8, v)
}

// pop pops a 64-bit value from the stack.
func (m *Machine) pop() (uint64, error) {
	v, err := m.read(m.CPU.GPR[isa.RSP], 8)
	if err != nil {
		return 0, err
	}
	m.CPU.GPR[isa.RSP] += 8
	return v, nil
}

// setIntFlags updates ZF/SF/PF from a 64-bit result.
func (m *Machine) setIntFlags(res uint64) {
	f := m.CPU.RFLAGS &^ (FlagZF | FlagSF | FlagPF)
	if res == 0 {
		f |= FlagZF
	}
	if res>>63 != 0 {
		f |= FlagSF
	}
	if parityEven(uint8(res)) {
		f |= FlagPF
	}
	m.CPU.RFLAGS = f
}

func parityEven(b uint8) bool {
	b ^= b >> 4
	b ^= b >> 2
	b ^= b >> 1
	return b&1 == 0
}

// setAddFlags sets CF/OF for a+b=res.
func (m *Machine) setAddFlags(a, b, res uint64) {
	m.setIntFlags(res)
	f := m.CPU.RFLAGS &^ (FlagCF | FlagOF)
	if res < a {
		f |= FlagCF
	}
	if (a^res)&(b^res)>>63 != 0 {
		f |= FlagOF
	}
	m.CPU.RFLAGS = f
}

// setSubFlags sets CF/OF for a-b=res.
func (m *Machine) setSubFlags(a, b, res uint64) {
	m.setIntFlags(res)
	f := m.CPU.RFLAGS &^ (FlagCF | FlagOF)
	if a < b {
		f |= FlagCF
	}
	if (a^b)&(a^res)>>63 != 0 {
		f |= FlagOF
	}
	m.CPU.RFLAGS = f
}

// setLogicFlags sets flags after and/or/xor/test (CF=OF=0).
func (m *Machine) setLogicFlags(res uint64) {
	m.setIntFlags(res)
	m.CPU.RFLAGS &^= FlagCF | FlagOF
}

// unmasked returns the exception bits of flags that are unmasked in MXCSR.
func (m *Machine) unmasked(flags uint32) uint32 {
	masks := m.CPU.MXCSR >> MXCSRMaskShift & MXCSRStatusMask
	return flags &^ masks & fpmath.ExAll
}

// IsHostAddr reports whether addr falls in the host bridge range.
func IsHostAddr(addr uint64) bool { return addr >= obj.HostBase }

// fault records a failed access or decode as EvFault, or as EvBoxEscape
// for a hardware box-escape hit.
func (m *Machine) fault(err error) EventKind {
	var ef *escapeFault
	if errors.As(err, &ef) {
		// Precise, like #XF: RIP unchanged, destination unwritten; the
		// handler demotes the word and the load re-executes.
		m.event = Event{Kind: EvBoxEscape, EscapeAddr: ef.addr}
		return EvBoxEscape
	}
	m.event = Event{Kind: EvFault, Err: err}
	return EvFault
}

// raise records an event that carries no details.
func (m *Machine) raise(k EventKind) EventKind {
	m.event = Event{Kind: k}
	return k
}

// jumped reports a retired control transfer to target: EvHostCall when
// it enters the host bridge range, else EvNone.
func (m *Machine) jumped(target uint64) EventKind {
	if IsHostAddr(target) {
		m.event = Event{Kind: EvHostCall, HostAddr: target}
		return EvHostCall
	}
	return EvNone
}

// DumpState renders a compact register dump for diagnostics.
func (m *Machine) DumpState() string {
	s := fmt.Sprintf("rip=%#x cycles=%d\n", m.CPU.RIP, m.Cycles)
	for r := isa.Reg(0); r < isa.NumGPR; r++ {
		s += fmt.Sprintf("%-4s=%#016x ", isa.GPRName(r), m.CPU.GPR[r])
		if r%4 == 3 {
			s += "\n"
		}
	}
	for r := isa.Reg(0); r < isa.NumXMM; r++ {
		s += fmt.Sprintf("%-6s=%#016x:%#016x ", isa.XMMName(r), m.CPU.XMM[r][1], m.CPU.XMM[r][0])
		if r%2 == 1 {
			s += "\n"
		}
	}
	s += fmt.Sprintf("rflags=%#x mxcsr=%#x\n", m.CPU.RFLAGS, m.CPU.MXCSR)
	return s
}
