package isa

// Op identifies an instruction opcode. The inventory mirrors the subset of
// x64 that the paper's FPVM implementation decodes, binds and emulates:
// SSE2 scalar/packed double arithmetic, the cmpxx predicate family, about
// forty move forms across the GPR and XMM files, integer ALU, and the
// control flow needed by compiled numeric kernels.
type Op uint16

const (
	INVALID Op = iota

	// Control / system.
	NOP
	HLT
	INT3
	SYSCALL
	RET
	CALL  // call rel32
	CALLR // call [r/m]
	JMP   // jmp rel32
	JMPR  // jmp [r/m]

	// Conditional branches (rel32). Condition codes follow x64 semantics
	// over the simulated RFLAGS.
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	JP
	JNP

	// GPR moves.
	MOV64RR // mov r64, r64
	MOV64RM // mov r64, [mem]
	MOV64MR // mov [mem], r64
	MOV64RI // mov r64, imm64
	MOV32RR
	MOV32RM
	MOV32MR
	MOV32RI
	MOV16RM
	MOV16MR
	MOV8RM
	MOV8MR
	MOVZX8  // movzx r64, r/m8
	MOVZX16 // movzx r64, r/m16
	MOVSX8  // movsx r64, r/m8
	MOVSX16 // movsx r64, r/m16
	MOVSXD  // movsxd r64, r/m32
	LEA
	PUSH
	POP
	XCHG64

	// Integer ALU (reg, r/m).
	ADD64
	SUB64
	IMUL64
	AND64
	OR64
	XOR64
	CMP64
	TEST64

	// Integer ALU (r/m, imm32).
	ADD64I
	SUB64I
	CMP64I
	AND64I
	OR64I
	XOR64I
	IMUL64I // imul r64, r/m64, imm32

	// Shifts.
	SHL64I // shl r/m, imm8
	SHR64I
	SAR64I
	SHL64CL
	SHR64CL
	SAR64CL

	// Integer unary (r/m).
	INC64
	DEC64
	NEG64
	NOT64

	// Scalar double arithmetic (xmm, xmm/m64).
	ADDSD
	SUBSD
	MULSD
	DIVSD
	SQRTSD
	MINSD
	MAXSD
	UCOMISD
	COMISD

	// Scalar double compare-predicate family (xmm, xmm/m64) -> mask.
	CMPEQSD
	CMPLTSD
	CMPLESD
	CMPUNORDSD
	CMPNEQSD
	CMPNLTSD
	CMPNLESD
	CMPORDSD

	// Packed double arithmetic (xmm, xmm/m128).
	ADDPD
	SUBPD
	MULPD
	DIVPD
	SQRTPD
	MINPD
	MAXPD
	CMPEQPD
	CMPLTPD
	CMPLEPD
	CMPNEQPD

	// Conversions.
	CVTSI2SD // xmm <- r/m64 (signed int)
	CVTSD2SI // r64 <- xmm/m64 (rounded)
	CVTTSD2SI
	ROUNDSD // xmm, xmm/m64, imm8

	// XMM moves: scalar.
	MOVSDXX // movsd xmm, xmm (merge low lane)
	MOVSDXM // movsd xmm, m64 (zero high lane)
	MOVSDMX // movsd m64, xmm
	// XMM moves: packed aligned/unaligned.
	MOVAPDXX
	MOVAPDXM
	MOVAPDMX
	MOVUPDXM
	MOVUPDMX
	// XMM <-> GPR.
	MOVQXG // movq xmm, r64
	MOVQGX // movq r64, xmm
	MOVQXM // movq xmm, m64 (zero high)
	MOVQMX // movq m64, xmm
	MOVDXG // movd xmm, r32
	MOVDGX // movd r32, xmm
	// Partial vector moves.
	MOVHPDXM // movhpd xmm, m64 (high lane only)
	MOVHPDMX
	MOVLPDXM
	MOVLPDMX
	MOVDDUP
	// Integer vector moves.
	MOVDQAXX
	MOVDQAXM
	MOVDQAMX
	MOVDQUXM
	MOVDQUMX
	// Shuffles / logicals.
	UNPCKLPD
	UNPCKHPD
	SHUFPD // xmm, xmm/m128, imm8
	PXOR
	XORPD
	ANDPD
	ORPD
	ANDNPD

	NumOps
)

// EncForm describes how an instruction's operands are laid out after the
// opcode bytes.
type EncForm uint8

const (
	FormNone EncForm = iota // no operands
	FormRM                  // modrm: op1 = reg field, op2 = r/m
	FormMR                  // modrm: op1 = r/m (dst), op2 = reg field
	FormMI                  // modrm: op1 = r/m, immediate follows
	FormM                   // modrm: single r/m operand
	FormRMI                 // modrm: op1 = reg, op2 = r/m, imm follows
	FormRel                 // rel32 branch target
)

// RegClass selects which register file an encoded register number refers to.
type RegClass uint8

const (
	ClassNone RegClass = iota
	ClassGPR
	ClassXMM
)

type opFlags uint16

const (
	flagFPScalar opFlags = 1 << iota // scalar double arithmetic/compare
	flagFPPacked                     // packed double arithmetic/compare
	flagMove                         // data movement
	flagBranch                       // unconditional control transfer
	flagCondBranch
	flagCall
	flagRet
	flagIntALU
	flagCvt       // int<->fp conversion
	flagCmpPred   // cmpxx predicate family
	flagReadsFP   // consumes float64 lanes arithmetically (can fault)
	flagXMMDest   // writes an XMM register/lane
	flagSystem    // hlt/int3/syscall
	flagMemAlways // r/m must be memory (lea, movhpd...)
)

type opInfo struct {
	name   string
	escape bool // true: 0x0F page
	opc    byte
	form   EncForm
	cls    [2]RegClass // register class of op1, op2 (modrm reg / rm)
	imm    uint8       // immediate size in bytes (0,1,4,8)
	mem    uint8       // memory access width when r/m is memory
	lat    uint8       // native latency in simulated cycles
	flags  opFlags
}

var opTab = [NumOps]opInfo{
	INVALID: {name: "(invalid)"},

	NOP:     {name: "nop", opc: 0x01, form: FormNone, lat: 1},
	HLT:     {name: "hlt", opc: 0x02, form: FormNone, lat: 1, flags: flagSystem},
	INT3:    {name: "int3", opc: 0x03, form: FormNone, lat: 1, flags: flagSystem},
	SYSCALL: {name: "syscall", opc: 0x04, form: FormNone, lat: 1, flags: flagSystem},
	RET:     {name: "ret", opc: 0x05, form: FormNone, lat: 3, flags: flagRet},
	CALL:    {name: "call", opc: 0x06, form: FormRel, imm: 4, lat: 3, flags: flagCall},
	CALLR:   {name: "call", opc: 0x07, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 4, flags: flagCall},
	JMP:     {name: "jmp", opc: 0x08, form: FormRel, imm: 4, lat: 2, flags: flagBranch},
	JMPR:    {name: "jmp", opc: 0x09, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 3, flags: flagBranch},

	JE:  {name: "je", opc: 0x10, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JNE: {name: "jne", opc: 0x11, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JL:  {name: "jl", opc: 0x12, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JLE: {name: "jle", opc: 0x13, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JG:  {name: "jg", opc: 0x14, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JGE: {name: "jge", opc: 0x15, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JB:  {name: "jb", opc: 0x16, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JBE: {name: "jbe", opc: 0x17, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JA:  {name: "ja", opc: 0x18, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JAE: {name: "jae", opc: 0x19, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JS:  {name: "js", opc: 0x1A, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JNS: {name: "jns", opc: 0x1B, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JP:  {name: "jp", opc: 0x1C, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},
	JNP: {name: "jnp", opc: 0x1D, form: FormRel, imm: 4, lat: 1, flags: flagCondBranch},

	MOV64RR: {name: "mov", opc: 0x20, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, lat: 1, flags: flagMove},
	MOV64RM: {name: "mov", opc: 0x21, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 4, flags: flagMove},
	MOV64MR: {name: "mov", opc: 0x22, form: FormMR, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 2, flags: flagMove},
	MOV64RI: {name: "mov", opc: 0x23, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 8, mem: 8, lat: 1, flags: flagMove},
	MOV32RR: {name: "mov", opc: 0x24, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, lat: 1, flags: flagMove},
	MOV32RM: {name: "mov", opc: 0x25, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 4, lat: 4, flags: flagMove},
	MOV32MR: {name: "mov", opc: 0x26, form: FormMR, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 4, lat: 2, flags: flagMove},
	MOV32RI: {name: "mov", opc: 0x27, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 4, lat: 1, flags: flagMove},
	MOV16RM: {name: "mov", opc: 0x28, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 2, lat: 4, flags: flagMove},
	MOV16MR: {name: "mov", opc: 0x29, form: FormMR, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 2, lat: 2, flags: flagMove},
	MOV8RM:  {name: "mov", opc: 0x2A, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 1, lat: 4, flags: flagMove},
	MOV8MR:  {name: "mov", opc: 0x2B, form: FormMR, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 1, lat: 2, flags: flagMove},
	MOVZX8:  {name: "movzx", opc: 0x2C, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 1, lat: 4, flags: flagMove},
	MOVZX16: {name: "movzx", opc: 0x2D, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 2, lat: 4, flags: flagMove},
	MOVSX8:  {name: "movsx", opc: 0x2E, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 1, lat: 4, flags: flagMove},
	MOVSX16: {name: "movsx", opc: 0x2F, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 2, lat: 4, flags: flagMove},
	MOVSXD:  {name: "movsxd", opc: 0x30, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 4, lat: 4, flags: flagMove},
	LEA:     {name: "lea", opc: 0x31, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, lat: 1, flags: flagMove | flagMemAlways},
	PUSH:    {name: "push", opc: 0x32, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 2, flags: flagMove},
	POP:     {name: "pop", opc: 0x33, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 2, flags: flagMove},
	XCHG64:  {name: "xchg", opc: 0x34, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 2, flags: flagMove},

	ADD64:  {name: "add", opc: 0x60, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	SUB64:  {name: "sub", opc: 0x61, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	IMUL64: {name: "imul", opc: 0x62, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 3, flags: flagIntALU},
	AND64:  {name: "and", opc: 0x63, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	OR64:   {name: "or", opc: 0x64, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	XOR64:  {name: "xor", opc: 0x65, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	CMP64:  {name: "cmp", opc: 0x66, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	TEST64: {name: "test", opc: 0x67, form: FormRM, cls: [2]RegClass{ClassGPR, ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},

	ADD64I:  {name: "add", opc: 0x68, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 8, lat: 1, flags: flagIntALU},
	SUB64I:  {name: "sub", opc: 0x69, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 8, lat: 1, flags: flagIntALU},
	CMP64I:  {name: "cmp", opc: 0x6A, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 8, lat: 1, flags: flagIntALU},
	AND64I:  {name: "and", opc: 0x6B, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 8, lat: 1, flags: flagIntALU},
	OR64I:   {name: "or", opc: 0x6C, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 8, lat: 1, flags: flagIntALU},
	XOR64I:  {name: "xor", opc: 0x6D, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 4, mem: 8, lat: 1, flags: flagIntALU},
	IMUL64I: {name: "imul", opc: 0x6E, form: FormRMI, cls: [2]RegClass{ClassGPR, ClassGPR}, imm: 4, mem: 8, lat: 3, flags: flagIntALU},

	SHL64I:  {name: "shl", opc: 0x70, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 1, mem: 8, lat: 1, flags: flagIntALU},
	SHR64I:  {name: "shr", opc: 0x71, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 1, mem: 8, lat: 1, flags: flagIntALU},
	SAR64I:  {name: "sar", opc: 0x72, form: FormMI, cls: [2]RegClass{ClassGPR}, imm: 1, mem: 8, lat: 1, flags: flagIntALU},
	SHL64CL: {name: "shl", opc: 0x73, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 2, flags: flagIntALU},
	SHR64CL: {name: "shr", opc: 0x74, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 2, flags: flagIntALU},
	SAR64CL: {name: "sar", opc: 0x75, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 2, flags: flagIntALU},

	INC64: {name: "inc", opc: 0x78, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	DEC64: {name: "dec", opc: 0x79, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	NEG64: {name: "neg", opc: 0x7A, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},
	NOT64: {name: "not", opc: 0x7B, form: FormM, cls: [2]RegClass{ClassGPR}, mem: 8, lat: 1, flags: flagIntALU},

	ADDSD:   {name: "addsd", escape: true, opc: 0x10, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	SUBSD:   {name: "subsd", escape: true, opc: 0x11, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	MULSD:   {name: "mulsd", escape: true, opc: 0x12, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 5, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	DIVSD:   {name: "divsd", escape: true, opc: 0x13, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 13, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	SQRTSD:  {name: "sqrtsd", escape: true, opc: 0x14, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 20, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	MINSD:   {name: "minsd", escape: true, opc: 0x15, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	MAXSD:   {name: "maxsd", escape: true, opc: 0x16, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagReadsFP | flagXMMDest},
	UCOMISD: {name: "ucomisd", escape: true, opc: 0x17, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagFPScalar | flagReadsFP},
	COMISD:  {name: "comisd", escape: true, opc: 0x18, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagFPScalar | flagReadsFP},

	CMPEQSD:    {name: "cmpeqsd", escape: true, opc: 0x19, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPLTSD:    {name: "cmpltsd", escape: true, opc: 0x1A, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPLESD:    {name: "cmplesd", escape: true, opc: 0x1B, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPUNORDSD: {name: "cmpunordsd", escape: true, opc: 0x1C, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPNEQSD:   {name: "cmpneqsd", escape: true, opc: 0x1D, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPNLTSD:   {name: "cmpnltsd", escape: true, opc: 0x1E, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPNLESD:   {name: "cmpnlesd", escape: true, opc: 0x1F, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPORDSD:   {name: "cmpordsd", escape: true, opc: 0x20, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagFPScalar | flagCmpPred | flagReadsFP | flagXMMDest},

	ADDPD:    {name: "addpd", escape: true, opc: 0x21, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	SUBPD:    {name: "subpd", escape: true, opc: 0x22, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	MULPD:    {name: "mulpd", escape: true, opc: 0x23, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 5, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	DIVPD:    {name: "divpd", escape: true, opc: 0x24, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 13, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	SQRTPD:   {name: "sqrtpd", escape: true, opc: 0x25, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 20, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	MINPD:    {name: "minpd", escape: true, opc: 0x26, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	MAXPD:    {name: "maxpd", escape: true, opc: 0x27, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagReadsFP | flagXMMDest},
	CMPEQPD:  {name: "cmpeqpd", escape: true, opc: 0x28, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPLTPD:  {name: "cmpltpd", escape: true, opc: 0x29, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPLEPD:  {name: "cmplepd", escape: true, opc: 0x2A, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagCmpPred | flagReadsFP | flagXMMDest},
	CMPNEQPD: {name: "cmpneqpd", escape: true, opc: 0x2B, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagFPPacked | flagCmpPred | flagReadsFP | flagXMMDest},

	CVTSI2SD:  {name: "cvtsi2sd", escape: true, opc: 0x30, form: FormRM, cls: [2]RegClass{ClassXMM, ClassGPR}, mem: 8, lat: 4, flags: flagCvt | flagXMMDest},
	CVTSD2SI:  {name: "cvtsd2si", escape: true, opc: 0x31, form: FormRM, cls: [2]RegClass{ClassGPR, ClassXMM}, mem: 8, lat: 4, flags: flagCvt | flagReadsFP},
	CVTTSD2SI: {name: "cvttsd2si", escape: true, opc: 0x32, form: FormRM, cls: [2]RegClass{ClassGPR, ClassXMM}, mem: 8, lat: 4, flags: flagCvt | flagReadsFP},
	ROUNDSD:   {name: "roundsd", escape: true, opc: 0x33, form: FormRMI, cls: [2]RegClass{ClassXMM, ClassXMM}, imm: 1, mem: 8, lat: 6, flags: flagFPScalar | flagReadsFP | flagXMMDest},

	MOVSDXX:  {name: "movsd", escape: true, opc: 0x40, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, lat: 1, flags: flagMove | flagXMMDest},
	MOVSDXM:  {name: "movsd", escape: true, opc: 0x41, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVSDMX:  {name: "movsd", escape: true, opc: 0x42, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagMove | flagMemAlways},
	MOVAPDXX: {name: "movapd", escape: true, opc: 0x43, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, lat: 1, flags: flagMove | flagXMMDest},
	MOVAPDXM: {name: "movapd", escape: true, opc: 0x44, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVAPDMX: {name: "movapd", escape: true, opc: 0x45, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 2, flags: flagMove | flagMemAlways},
	MOVUPDXM: {name: "movupd", escape: true, opc: 0x46, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 5, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVUPDMX: {name: "movupd", escape: true, opc: 0x47, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 3, flags: flagMove | flagMemAlways},
	MOVQXG:   {name: "movq", escape: true, opc: 0x48, form: FormRM, cls: [2]RegClass{ClassXMM, ClassGPR}, lat: 2, flags: flagMove | flagXMMDest},
	MOVQGX:   {name: "movq", escape: true, opc: 0x49, form: FormRM, cls: [2]RegClass{ClassGPR, ClassXMM}, lat: 2, flags: flagMove},
	MOVQXM:   {name: "movq", escape: true, opc: 0x4A, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVQMX:   {name: "movq", escape: true, opc: 0x4B, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagMove | flagMemAlways},
	MOVDXG:   {name: "movd", escape: true, opc: 0x4C, form: FormRM, cls: [2]RegClass{ClassXMM, ClassGPR}, lat: 2, flags: flagMove | flagXMMDest},
	MOVDGX:   {name: "movd", escape: true, opc: 0x4D, form: FormRM, cls: [2]RegClass{ClassGPR, ClassXMM}, lat: 2, flags: flagMove},
	MOVHPDXM: {name: "movhpd", escape: true, opc: 0x4E, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVHPDMX: {name: "movhpd", escape: true, opc: 0x4F, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagMove | flagMemAlways},
	MOVLPDXM: {name: "movlpd", escape: true, opc: 0x50, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 4, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVLPDMX: {name: "movlpd", escape: true, opc: 0x51, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagMove | flagMemAlways},
	MOVDDUP:  {name: "movddup", escape: true, opc: 0x52, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 8, lat: 2, flags: flagMove | flagXMMDest},
	MOVDQAXX: {name: "movdqa", escape: true, opc: 0x53, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, lat: 1, flags: flagMove | flagXMMDest},
	MOVDQAXM: {name: "movdqa", escape: true, opc: 0x54, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 4, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVDQAMX: {name: "movdqa", escape: true, opc: 0x55, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 2, flags: flagMove | flagMemAlways},
	MOVDQUXM: {name: "movdqu", escape: true, opc: 0x56, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 5, flags: flagMove | flagXMMDest | flagMemAlways},
	MOVDQUMX: {name: "movdqu", escape: true, opc: 0x57, form: FormMR, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 3, flags: flagMove | flagMemAlways},
	UNPCKLPD: {name: "unpcklpd", escape: true, opc: 0x58, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	UNPCKHPD: {name: "unpckhpd", escape: true, opc: 0x59, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	SHUFPD:   {name: "shufpd", escape: true, opc: 0x5A, form: FormRMI, cls: [2]RegClass{ClassXMM, ClassXMM}, imm: 1, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	PXOR:     {name: "pxor", escape: true, opc: 0x5B, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	XORPD:    {name: "xorpd", escape: true, opc: 0x5C, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	ANDPD:    {name: "andpd", escape: true, opc: 0x5D, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	ORPD:     {name: "orpd", escape: true, opc: 0x5E, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
	ANDNPD:   {name: "andnpd", escape: true, opc: 0x5F, form: FormRM, cls: [2]RegClass{ClassXMM, ClassXMM}, mem: 16, lat: 1, flags: flagMove | flagXMMDest},
}

// Reverse decode tables, built at init and validated for collisions.
var (
	page0 [256]Op
	page1 [256]Op
)

func init() {
	for op := Op(1); op < NumOps; op++ {
		info := &opTab[op]
		if info.name == "" {
			panic("isa: missing opTab entry for op " + op.String())
		}
		if op == INVALID {
			continue
		}
		page := &page0
		if info.escape {
			page = &page1
		} else if info.opc&0xF0 == 0x40 {
			// 0x40-0x4F is the REX prefix range; a page-0 opcode there
			// would be swallowed by prefix detection.
			panic("isa: page-0 opcode in REX range: " + info.name)
		}
		if page[info.opc] != INVALID {
			panic("isa: opcode byte collision: " + info.name + " vs " + page[info.opc].String())
		}
		page[info.opc] = op
	}
}

// String returns the mnemonic for op.
func (op Op) String() string {
	if op < NumOps && opTab[op].name != "" {
		return opTab[op].name
	}
	return "op?"
}

// Name returns the unique constant-style name (mnemonics are shared between
// width variants, names are not).
func (op Op) GoString() string { return op.String() }

// Form returns the operand encoding form of op.
func (op Op) Form() EncForm { return opTab[op].form }

// ImmBytes returns the immediate width in bytes (0 if none).
func (op Op) ImmBytes() int { return int(opTab[op].imm) }

// MemBytes returns the memory access width in bytes when the r/m operand is
// a memory reference.
func (op Op) MemBytes() int { return int(opTab[op].mem) }

// Latency returns the native execution cost of op in simulated cycles.
func (op Op) Latency() uint64 { return uint64(opTab[op].lat) }

// RegClasses returns the register classes of the two modrm-encoded
// operands (reg field, r/m field).
func (op Op) RegClasses() (RegClass, RegClass) { return opTab[op].cls[0], opTab[op].cls[1] }

// IsFPScalar reports whether op is scalar double arithmetic/compare.
func (op Op) IsFPScalar() bool { return opTab[op].flags&flagFPScalar != 0 }

// IsFPPacked reports whether op is packed double arithmetic/compare.
func (op Op) IsFPPacked() bool { return opTab[op].flags&flagFPPacked != 0 }

// IsFPArith reports whether op performs FP arithmetic that can raise an
// SSE exception (#XF) — the instructions FPVM virtualizes.
func (op Op) IsFPArith() bool { return opTab[op].flags&flagReadsFP != 0 }

// IsMove reports whether op only moves data.
func (op Op) IsMove() bool { return opTab[op].flags&flagMove != 0 }

// IsBranch reports whether op unconditionally transfers control.
func (op Op) IsBranch() bool { return opTab[op].flags&(flagBranch|flagRet) != 0 }

// IsCondBranch reports whether op is a conditional branch.
func (op Op) IsCondBranch() bool { return opTab[op].flags&flagCondBranch != 0 }

// IsCall reports whether op is a call.
func (op Op) IsCall() bool { return opTab[op].flags&flagCall != 0 }

// IsRet reports whether op is a return.
func (op Op) IsRet() bool { return opTab[op].flags&flagRet != 0 }

// IsControlFlow reports whether op alters sequential control flow.
func (op Op) IsControlFlow() bool {
	return opTab[op].flags&(flagBranch|flagCondBranch|flagCall|flagRet) != 0
}

// IsCmpPredicate reports whether op belongs to the cmpxx predicate family.
func (op Op) IsCmpPredicate() bool { return opTab[op].flags&flagCmpPred != 0 }

// IsCvt reports whether op converts between integer and floating point.
func (op Op) IsCvt() bool { return opTab[op].flags&flagCvt != 0 }

// IsIntALU reports whether op is integer arithmetic/logic.
func (op Op) IsIntALU() bool { return opTab[op].flags&flagIntALU != 0 }

// IsSystem reports whether op is hlt/int3/syscall.
func (op Op) IsSystem() bool { return opTab[op].flags&flagSystem != 0 }

// WritesXMM reports whether op writes an XMM register destination.
func (op Op) WritesXMM() bool { return opTab[op].flags&flagXMMDest != 0 }

// RequiresMem reports whether the r/m operand must be a memory reference.
func (op Op) RequiresMem() bool { return opTab[op].flags&flagMemAlways != 0 }

// RequiresReg reports whether the r/m operand must be a register: an
// r/m form that names no memory width and is not memory-only (lea) is a
// register-to-register move.
func (op Op) RequiresReg() bool {
	info := &opTab[op]
	return info.form != FormNone && info.form != FormRel && info.mem == 0 && info.flags&flagMemAlways == 0
}
