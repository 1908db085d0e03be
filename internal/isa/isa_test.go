package isa

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// randOperandFor builds a random operand valid for the given class / memory
// permission.
func randOperandFor(r *rand.Rand, cls RegClass, memOK, memOnly bool) Operand {
	if memOnly || (memOK && r.Intn(2) == 0) {
		// Random memory operand shapes.
		switch r.Intn(5) {
		case 0:
			return MemRIP(int32(r.Int63()))
		case 1:
			return MemAbs(int32(r.Int63()) & 0x7FFFFFF0)
		case 2:
			return Mem(Reg(r.Intn(16)), int32(int8(r.Int())))
		case 3:
			return Mem(Reg(r.Intn(16)), int32(r.Int31())-1<<30)
		default:
			idx := Reg(r.Intn(16))
			for idx == RSP {
				idx = Reg(r.Intn(16))
			}
			scale := uint8(1 << r.Intn(4))
			return MemIdx(Reg(r.Intn(16)), idx, scale, int32(r.Int31())-1<<30)
		}
	}
	if cls == ClassXMM {
		return XMM(Reg(r.Intn(16)))
	}
	return GPR(Reg(r.Intn(16)))
}

// randInst builds a random valid instruction for op.
func randInst(r *rand.Rand, op Op) Inst {
	info := opTab[op]
	var in Inst
	in.Op = op
	switch info.form {
	case FormNone:
		return in
	case FormRel:
		in.Imm = int64(int32(r.Uint32()))
		return in
	case FormRM, FormRMI:
		cls1, cls2 := op.RegClasses()
		in.RegOp = randOperandFor(r, cls1, false, false)
		in.RMOp = randOperandFor(r, cls2, !op.RequiresReg(), op.RequiresMem())
	case FormMR:
		cls1, cls2 := op.RegClasses()
		in.RegOp = randOperandFor(r, cls2, false, false)
		_ = cls1
		in.RMOp = randOperandFor(r, cls1, true, op.RequiresMem())
	case FormMI, FormM:
		cls1, _ := op.RegClasses()
		in.RMOp = randOperandFor(r, cls1, true, op.RequiresMem())
	}
	switch info.imm {
	case 1:
		in.Imm = int64(int8(r.Int()))
	case 4:
		in.Imm = int64(int32(r.Uint32()))
	case 8:
		in.Imm = int64(r.Uint64())
	}
	return in
}

// TestEncodeDecodeRoundtrip encodes random instructions of every opcode
// and checks decode reproduces them exactly.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	const perOp = 64
	for op := Op(1); op < NumOps; op++ {
		for i := 0; i < perOp; i++ {
			in := randInst(r, op)
			enc, err := Encode(&in)
			if err != nil {
				t.Fatalf("%v: encode %s: %v", op, in.String(), err)
			}
			if len(enc) > MaxInstLen {
				t.Fatalf("%v: encoding too long (%d)", op, len(enc))
			}
			got, err := Decode(enc, 0x400000)
			if err != nil {
				t.Fatalf("%v: decode % x: %v", op, enc, err)
			}
			if int(got.Len) != len(enc) {
				t.Fatalf("%v: Len %d != %d", op, got.Len, len(enc))
			}
			in.Addr = 0x400000
			in.Len = got.Len
			// Normalize: memory operands with scale omitted encode as 1;
			// MemAbs / Mem produce canonical fields already.
			if !instEqual(&in, &got) {
				t.Fatalf("%v roundtrip mismatch:\n in:  %+v\n out: %+v\n enc: % x",
					op, in, got, enc)
			}
		}
	}
}

func instEqual(a, b *Inst) bool {
	return a.Op == b.Op && operandEqual(a.RegOp, b.RegOp) &&
		operandEqual(a.RMOp, b.RMOp) && a.Imm == b.Imm
}

func operandEqual(a, b Operand) bool {
	if a.Kind != b.Kind {
		// FormM/FormMI leave RegOp unset on decode.
		return a.Kind == KindNone && b.Kind == KindNone
	}
	switch a.Kind {
	case KindMem:
		if a.Scale == 0 {
			a.Scale = 1
		}
		if b.Scale == 0 {
			b.Scale = 1
		}
		// An absent index normalizes scale to 1.
		if a.Index == NoReg {
			a.Scale = 1
		}
		if b.Index == NoReg {
			b.Scale = 1
		}
		return a.Base == b.Base && a.Index == b.Index && a.Scale == b.Scale &&
			a.Disp == b.Disp && a.RIPRel == b.RIPRel
	case KindGPR, KindXMM:
		return a.Reg == b.Reg
	}
	return true
}

// TestDecodeErrors checks malformed byte sequences are rejected.
func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0x00},             // invalid opcode
		{0xFF},             // unknown byte
		{0x0F},             // truncated escape
		{0x0F, 0xFF},       // unknown escape opcode
		{0x06},             // call without rel32
		{0x06, 0x01, 0x02}, // truncated rel32
		{0x20},             // mov without modrm
		{0x41},             // bare REX
	}
	for _, c := range cases {
		if _, err := Decode(c, 0); err == nil {
			t.Errorf("Decode(% x) succeeded, want error", c)
		}
	}
	// Truncated disp32.
	in := MakeRM(MOV64RM, GPR(RAX), Mem(RBX, 0x12345678))
	enc, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(enc[:len(enc)-1], 0); err == nil {
		t.Error("truncated disp32 decoded")
	}
}

// registerOnlyOps are the register-to-register moves, the only opcodes
// that take no memory r/m.
var registerOnlyOps = map[Op]string{
	MOV64RR: "MOV64RR", MOV32RR: "MOV32RR", MOVSDXX: "MOVSDXX",
	MOVAPDXX: "MOVAPDXX", MOVDQAXX: "MOVDQAXX", MOVQXG: "MOVQXG",
	MOVQGX: "MOVQGX", MOVDXG: "MOVDXG", MOVDGX: "MOVDGX",
}

// TestDecodeRefusesMemoryOnRegisterOnlyOps decodes each register-only
// move with its modrm byte turned into [rbx], and expects a DecodeError
// (a memory r/m on MOV64RR would otherwise be an 8-byte load named with
// no width, and on MOVSDXX a copy of xmm0). Encode refuses the same form.
func TestDecodeRefusesMemoryOnRegisterOnlyOps(t *testing.T) {
	for op := Op(1); op < NumOps; op++ {
		if _, listed := registerOnlyOps[op]; op.RequiresReg() != listed {
			t.Errorf("%s (%d): RequiresReg %v, want %v", op, op, op.RequiresReg(), listed)
		}
	}
	for op, name := range registerOnlyOps {
		t.Run(name, func(t *testing.T) {
			regCls, rmCls := op.RegClasses()
			reg := func(cls RegClass) Operand {
				if cls == ClassXMM {
					return XMM(XMM1)
				}
				return GPR(RCX)
			}
			in := MakeRM(op, reg(regCls), reg(rmCls))
			enc, err := Encode(&in)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Decode(enc, 0x400000); err != nil {
				t.Fatalf("register form % x: %v", enc, err)
			}
			// The modrm byte ends the encoding: mode 0, r/m rbx.
			enc[len(enc)-1] = enc[len(enc)-1]&0x38 | byte(RBX)
			var de *DecodeError
			if _, err := Decode(enc, 0x400000); !errors.As(err, &de) {
				t.Fatalf("Decode(% x) = %v, want a DecodeError", enc, err)
			}
			mem := MakeRM(op, reg(regCls), Mem(RBX, 0))
			if _, err := Encode(&mem); err == nil {
				t.Fatalf("Encode(%v) accepted a memory r/m", mem)
			}
		})
	}
}

// TestEncodeErrors checks invalid operand combinations are rejected.
func TestEncodeErrors(t *testing.T) {
	bad := []Inst{
		MakeRM(ADDSD, GPR(RAX), XMM(XMM1)),              // wrong reg class
		MakeRM(MOV64RR, XMM(XMM0), GPR(RAX)),            // wrong reg class
		MakeRM(LEA, GPR(RAX), GPR(RBX)),                 // lea needs memory
		MakeRM(MOVSDXM, XMM(XMM0), XMM(XMM1)),           // memory-only form
		MakeRM(ADD64, GPR(RAX), MemIdx(RBX, RSP, 1, 0)), // rsp as index
		MakeRM(ADD64, GPR(RAX), MemIdx(RBX, RCX, 3, 0)), // bad scale
		{Op: INVALID}, // invalid opcode
	}
	for _, in := range bad {
		in := in
		if _, err := Encode(&in); err == nil {
			t.Errorf("Encode(%s %v) succeeded, want error", in.Op, in)
		}
	}
}

// TestEncodingLengthsVary sanity-checks the variable-length property: a
// register form is shorter than a disp32 memory form.
func TestEncodingLengthsVary(t *testing.T) {
	short := MakeRM(ADDSD, XMM(XMM0), XMM(XMM1))
	long := MakeRM(ADDSD, XMM(XMM0), Mem(RBX, 0x100000))
	ls, err := EncodedLen(&short)
	if err != nil {
		t.Fatal(err)
	}
	ll, err := EncodedLen(&long)
	if err != nil {
		t.Fatal(err)
	}
	if ls >= ll {
		t.Errorf("reg form (%d bytes) not shorter than disp32 form (%d)", ls, ll)
	}
	// REX only when high registers appear.
	noRex := MakeRM(ADD64, GPR(RAX), GPR(RBX))
	rex := MakeRM(ADD64, GPR(R8), GPR(RBX))
	ln, _ := EncodedLen(&noRex)
	lr, _ := EncodedLen(&rex)
	if lr != ln+1 {
		t.Errorf("REX form %d bytes, want %d", lr, ln+1)
	}
}

// TestDisassembly golden-checks a few renderings, including the width
// keywords the paper's Figure 7 shows.
func TestDisassembly(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{MakeRM(ADDSD, XMM(XMM12), XMM(XMM5)), "addsd xmm12, xmm5"},
		{MakeRM(MOVSDXM, XMM(XMM5), MemRIP(0x91d)), "movsd xmm5, qword ptr [rip + 0x91d]"},
		{MakeRM(MOVAPDXX, XMM(XMM0), XMM(XMM8)), "movapd xmm0, xmm8"},
		{MakeRM(MULSD, XMM(XMM4), XMM(XMM15)), "mulsd xmm4, xmm15"},
		{MakeRM(MOVHPDXM, XMM(XMM11), Mem(RSP, 0x30)), "movhpd xmm11, qword ptr [rsp + 0x30]"},
		{MakeRM(MOV64RM, GPR(RAX), MemIdx(RBX, RCX, 8, -8)), "mov rax, qword ptr [rbx + rcx*8 - 0x8]"},
		{MakeMI(SUB64I, GPR(RSP), 1024), "sub rsp, 0x400"},
		{MakeNullary(INT3), "int3"},
		{MakeM(PUSH, GPR(RBP)), "push rbp"},
	}
	for _, tc := range cases {
		in := tc.in
		if got := in.String(); got != tc.want {
			t.Errorf("disasm: got %q want %q", got, tc.want)
		}
	}
}

// TestFig7Shape reproduces the exact rendering style of the paper's
// example trace instructions.
func TestFig7Shape(t *testing.T) {
	in := MakeRM(MOVSDXM, XMM(XMM5), MemRIP(0x91d))
	if !strings.Contains(in.String(), "qword ptr [rip + 0x91d]") {
		t.Errorf("rip-relative rendering: %q", in.String())
	}
}

// TestOpPredicates spot-checks the metadata helpers.
func TestOpPredicates(t *testing.T) {
	if !ADDSD.IsFPScalar() || !ADDSD.IsFPArith() || ADDSD.IsMove() {
		t.Error("ADDSD predicates")
	}
	if !ADDPD.IsFPPacked() || ADDPD.IsFPScalar() {
		t.Error("ADDPD predicates")
	}
	if !MOVSDXM.IsMove() || MOVSDXM.IsFPArith() {
		t.Error("MOVSDXM predicates")
	}
	if !JE.IsCondBranch() || JE.IsBranch() {
		t.Error("JE predicates")
	}
	if !CALL.IsCall() || !CALL.IsControlFlow() {
		t.Error("CALL predicates")
	}
	if !RET.IsRet() || !RET.IsBranch() {
		t.Error("RET predicates")
	}
	if !CMPLTSD.IsCmpPredicate() {
		t.Error("CMPLTSD predicate")
	}
	if !CVTSI2SD.IsCvt() || !ADD64.IsIntALU() || !INT3.IsSystem() {
		t.Error("misc predicates")
	}
	if !LEA.RequiresMem() || ADD64.RequiresMem() {
		t.Error("RequiresMem")
	}
	if ADDSD.MemBytes() != 8 || ADDPD.MemBytes() != 16 || MOV32RM.MemBytes() != 4 {
		t.Error("MemBytes")
	}
	if ADDSD.Latency() == 0 || DIVSD.Latency() <= ADDSD.Latency() {
		t.Error("latencies")
	}
}

// TestBranchTarget checks rel32 target math.
func TestBranchTarget(t *testing.T) {
	in := MakeRel(JMP, 0x10)
	enc, err := Encode(&in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(0x1000) + uint64(len(enc)) + 0x10; got.BranchTarget() != want {
		t.Errorf("target %#x want %#x", got.BranchTarget(), want)
	}
}

// TestRegisterNames checks the naming helpers both ways.
func TestRegisterNames(t *testing.T) {
	for r := Reg(0); r < NumGPR; r++ {
		name := GPRName(r)
		back, ok := GPRByName(name)
		if !ok || back != r {
			t.Errorf("GPR roundtrip %d -> %s -> %d", r, name, back)
		}
	}
	for r := Reg(0); r < NumXMM; r++ {
		name := XMMName(r)
		back, ok := XMMByName(name)
		if !ok || back != r {
			t.Errorf("XMM roundtrip %d -> %s -> %d", r, name, back)
		}
	}
	if _, ok := GPRByName("bogus"); ok {
		t.Error("bogus GPR resolved")
	}
	if _, ok := XMMByName("xmm99"); ok {
		t.Error("xmm99 resolved")
	}
}
