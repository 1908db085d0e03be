package machine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"fpvm/internal/isa"
	"fpvm/internal/machine"
	"fpvm/internal/mem"
	"fpvm/internal/nanbox"
)

// pinnedSemanticsDigest is the digest TestInstructionSemanticsPinned
// computes. It was recorded on the interpreter that dispatched every
// step through nested opcode switches, before each decoded instruction
// carried its own handler, so any change to what an instruction
// computes, charges, raises, reports to a tracer or stores shows up as
// a mismatch. When the decoder stopped accepting a memory r/m on the
// nine register-to-register moves, their 3,150 memory-form cases left
// the pin (45,000 → 41,850 cases); this is the digest the handler-per-
// instruction machine gave over the remaining cases before that change.
const pinnedSemanticsDigest = "3b6e55ed01ee2da2b5e17a952e0ad03860f1563da2a6eb259301a0db31a0de80"

// The pin's address space: two read-write data pages, a read-only page,
// a hole and one stack page.
const (
	pinCode  = 0x400000
	pinData  = 0x800000
	pinRO    = 0x900000
	pinHole  = 0xA00000
	pinStack = 0x6FF000
	pinRSP   = pinStack + 0x800
)

// pinValues are the operands every form runs on: zeros of both signs, a
// denormal, both infinities, a quiet and a signaling NaN, a NaN-box
// pattern and INT64_MIN (the bits of -0 read as an integer).
var pinValues = []uint64{
	0,
	0x8000000000000000,
	0x0000000000000001,
	0x7FF0000000000000,
	0xFFF0000000000000,
	0x7FF8000000000000,
	0x7FF0000000000001,
	nanbox.Box(3),
	1 << 63,
	0x3FF8000000000000, // 1.5, so binary ops also see an ordinary operand
}

// pinFlags are the RFLAGS a case starts from, one combination per pin
// value, so that every condition code sees a flag set it accepts and one
// it refuses.
var pinFlags = []uint64{
	0,
	machine.FlagCF,
	machine.FlagZF,
	machine.FlagSF,
	machine.FlagOF,
	machine.FlagSF | machine.FlagOF,
	machine.FlagPF,
	machine.FlagCF | machine.FlagZF,
	machine.FlagZF | machine.FlagSF,
	machine.FlagCF | machine.FlagPF | machine.FlagOF,
}

// pinTarget is where a memory operand points.
type pinTarget struct {
	name string
	addr uint64
}

var pinTargets = []pinTarget{
	{"in-page", pinData + 0x100},
	{"straddle", pinData + 0xFFC},       // into the second data page
	{"straddle-hole", pinData + 0x1FFC}, // into the unmapped page after it
	{"read-only", pinRO + 0x100},
	{"unmapped", pinHole + 0x100},
}

// pinForm is one r/m form of an instruction.
type pinForm struct {
	name   string
	target pinTarget // memory forms only
	rm     func(cls isa.RegClass) isa.Operand
}

func pinForms() []pinForm {
	reg := func(cls isa.RegClass) isa.Operand {
		if cls == isa.ClassXMM {
			return isa.XMM(isa.XMM2)
		}
		return isa.GPR(isa.RDX)
	}
	forms := []pinForm{{name: "reg", rm: reg}}
	for i, tg := range pinTargets {
		// base+disp reaches every target; the other two memory forms
		// reach the in-page one.
		forms = append(forms, pinForm{name: "base+disp", target: tg,
			rm: func(isa.RegClass) isa.Operand { return isa.Mem(isa.RBX, 0x40) }})
		if i == 0 {
			forms = append(forms,
				pinForm{name: "base+index*8+disp", target: tg,
					rm: func(isa.RegClass) isa.Operand { return isa.MemIdx(isa.RBX, isa.RSI, 8, 0x30) }},
				pinForm{name: "rip", target: tg,
					rm: func(isa.RegClass) isa.Operand { return isa.MemRIP(0) }})
		}
	}
	return forms
}

// pinVariant is the machine configuration a case runs under.
type pinVariant struct {
	mxcsr  uint32
	tracer bool
	escape bool
}

var pinVariants = []pinVariant{
	{machine.MXCSRDefault, false, false},
	{machine.MXCSRDefault, true, false},
	{machine.MXCSRTrapAll, false, false},
	{machine.MXCSRTrapAll, true, false},
	{machine.MXCSRTrapAll, true, true},
}

// hashTracer writes every tracer call into the pin's hash.
type hashTracer struct{ h *pinHash }

func (t hashTracer) OnStore(rip, addr uint64, size int, xmm, fpTyped bool) {
	t.h.str("store")
	t.h.u64(rip, addr, uint64(size))
	t.h.flag(xmm, fpTyped)
}

func (t hashTracer) OnLoad(rip, addr uint64, size int, xmm bool) {
	t.h.str("load")
	t.h.u64(rip, addr, uint64(size))
	t.h.flag(xmm)
}

type pinHash struct{ hash.Hash }

func (h *pinHash) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func (h *pinHash) str(s string) {
	h.u64(uint64(len(s)))
	h.Write([]byte(s))
}

func (h *pinHash) flag(bs ...bool) {
	for _, b := range bs {
		if b {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
}

// TestInstructionSemanticsPinned runs every opcode the decoder accepts,
// in each r/m form it accepts (register, base+disp, base+index*scale+disp
// and RIP-relative, plus base+disp at a page straddle, at a straddle into
// a hole, at a read-only page and at an unmapped address), on every pin
// value and from a set of RFLAGS, under masked and unmasked MXCSR, with
// and without a recording tracer and with the box-escape check. Each case steps the instruction
// twice (the second time through a warm TLB and icache page), and hashes
// the CPU, Cycles, Instructions, FPInstructions and each event's kind and
// details after every step, the tracer's calls, and the bytes around
// every memory target and the stack pointer.
func TestInstructionSemanticsPinned(t *testing.T) {
	h := &pinHash{sha256.New()}
	cases := 0
	forms := pinForms()
	for op := isa.Op(1); op < isa.NumOps; op++ {
		for _, f := range forms {
			for vi := range pinValues {
				for _, vr := range pinVariants {
					if pinCase(t, h, op, f, vi, vr) {
						cases++
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d cases, digest %s", cases, got)
	if got != pinnedSemanticsDigest {
		t.Errorf("instruction semantics moved: digest %s, pinned %s", got, pinnedSemanticsDigest)
	}
}

// pinInst builds op in form f, or reports false when the encoder refuses
// the form or the decoder does not read it back as built.
func pinInst(op isa.Op, f pinForm, imm int64) (isa.Inst, bool) {
	in := isa.Inst{Op: op, Imm: imm}
	regCls, rmCls := op.RegClasses()
	switch op.Form() {
	case isa.FormNone, isa.FormRel:
		if f.name != "reg" {
			return in, false
		}
		if op.Form() == isa.FormRel {
			in.Imm = 0x100 // into zeroed code, so taken and not taken differ
		}
		return in, true
	case isa.FormMI, isa.FormM:
		in.RMOp = f.rm(regCls)
	default:
		if regCls == isa.ClassXMM {
			in.RegOp = isa.XMM(isa.XMM1)
		} else {
			in.RegOp = isa.GPR(isa.RAX)
		}
		in.RMOp = f.rm(rmCls)
	}
	in.Addr = pinCode
	code, err := isa.Encode(&in)
	if err != nil {
		return in, false
	}
	back, err := isa.Decode(code, pinCode)
	if err != nil || back.Op != op || back.RMOp.Kind != in.RMOp.Kind {
		return in, false
	}
	return in, true
}

// pinCase runs one case into h; false means op does not take form f.
func pinCase(t *testing.T, h *pinHash, op isa.Op, f pinForm, vi int, vr pinVariant) bool {
	t.Helper()
	v := pinValues[vi]
	w := pinValues[(vi+1)%len(pinValues)]
	imm := int64(vi*5+1) & 0xF
	if op.ImmBytes() >= 4 {
		imm = int64(int32(v>>32) ^ int32(v) ^ 0x5A5A0123)
	}
	in, ok := pinInst(op, f, imm)
	if !ok {
		return false
	}

	as := mem.NewAddressSpace()
	as.Map("code", pinCode, mem.PageSize, mem.PermRWX)
	as.Map("data", pinData, 2*mem.PageSize, mem.PermRW)
	as.Map("ro", pinRO, mem.PageSize, mem.PermRW)
	as.Map("stack", pinStack, mem.PageSize, mem.PermRW)
	var lanes [16]byte
	binary.LittleEndian.PutUint64(lanes[:], v)
	binary.LittleEndian.PutUint64(lanes[8:], w)
	for _, tg := range pinTargets {
		switch tg.name {
		case "straddle-hole":
			mustWrite(t, as, tg.addr, lanes[:4])
		case "unmapped":
		default:
			mustWrite(t, as, tg.addr, lanes[:])
		}
	}
	mustWrite(t, as, pinRSP, lanes[:])
	if err := as.Protect(pinRO, mem.PageSize, mem.PermRead); err != nil {
		t.Fatal(err)
	}

	// The instruction twice, then hlt; a RIP-relative operand of each
	// copy points at the same target.
	var code []byte
	addr := uint64(pinCode)
	for range 2 {
		in.Addr = addr
		if in.RMOp.RIPRel {
			n, err := isa.EncodedLen(&in)
			if err != nil {
				t.Fatal(err)
			}
			in.RMOp.Disp = int32(int64(f.target.addr) - int64(addr+uint64(n)))
		}
		enc, err := isa.Encode(&in)
		if err != nil {
			t.Fatal(err)
		}
		code = append(code, enc...)
		addr += uint64(len(enc))
	}
	hlt := isa.MakeNullary(isa.HLT)
	enc, _ := isa.Encode(&hlt)
	mustWrite(t, as, pinCode, append(code, enc...))

	m := machine.New(as)
	m.CPU.RIP = pinCode
	m.CPU.RFLAGS = pinFlags[vi]
	m.CPU.MXCSR = vr.mxcsr
	for r := range m.CPU.GPR {
		m.CPU.GPR[r] = 0x1111_0000 + uint64(r)*0x101
	}
	for r := range m.CPU.XMM {
		m.CPU.XMM[r] = [2]uint64{0x4000_0000_0000_0000 + uint64(r), w}
	}
	m.CPU.GPR[isa.RAX] = w
	m.CPU.GPR[isa.RDX] = v
	m.CPU.GPR[isa.RCX] = 0x25
	m.CPU.GPR[isa.RSI] = 2
	m.CPU.GPR[isa.RBX] = f.target.addr - 0x40
	m.CPU.GPR[isa.RSP] = pinRSP
	m.CPU.XMM[isa.XMM1] = [2]uint64{w, v}
	m.CPU.XMM[isa.XMM2] = [2]uint64{v, w}
	if vr.tracer {
		m.Tracer = hashTracer{h}
	}
	m.BoxEscapeCheck = vr.escape

	h.u64(uint64(op))
	h.str(f.name)
	h.str(f.target.name)
	h.u64(uint64(vi), uint64(vr.mxcsr))
	h.flag(vr.tracer, vr.escape)
	for range 2 {
		ev := m.Step()
		h.u64(m.CPU.GPR[:]...)
		for _, x := range m.CPU.XMM {
			h.u64(x[0], x[1])
		}
		h.u64(m.CPU.RIP, m.CPU.RFLAGS, uint64(m.CPU.MXCSR), m.Cycles, m.Instructions, m.FPInstructions)
		h.u64(uint64(ev.Kind), uint64(ev.FPFlags), ev.HostAddr, ev.EscapeAddr)
		if ev.Err != nil {
			h.str(ev.Err.Error())
		}
		if ev.Kind != machine.EvNone {
			break
		}
	}
	for _, win := range [][2]uint64{
		{pinData + 0xF0, 0x50}, {pinData + 0xFE0, 0x40}, {pinData + 0x1FE0, 0x20},
		{pinRO + 0xF0, 0x50}, {pinRSP - 0x40, 0x60},
	} {
		buf := make([]byte, win[1])
		if err := as.Read(win[0], buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	return true
}

func mustWrite(t *testing.T, as *mem.AddressSpace, addr uint64, b []byte) {
	t.Helper()
	if err := as.Write(addr, b); err != nil {
		t.Fatal(err)
	}
}
