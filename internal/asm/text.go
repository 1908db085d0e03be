package asm

import (
	"fmt"
	"strconv"
	"strings"

	"fpvm/internal/isa"
	"fpvm/internal/obj"
)

// Assemble parses Intel-flavoured assembly text into an image. It is the
// human-facing front end over Builder, used by tests and tooling; the
// workload compiler emits through Builder directly.
//
// Syntax per line (comments start with ';' or '#'):
//
//	.func name              begin a function (symbol + label)
//	.entry name             select the entry point
//	.double name v [v...]   data: float64s
//	.quad name v [v...]     data: uint64s
//	.rodouble name v [...]  rodata: float64s
//	.string name "text"     rodata: NUL-terminated bytes
//	.space name n           data: n zero bytes
//	label:                  define a label
//	op dst, src             instructions, e.g. addsd xmm0, xmm1
//	jne label / call fn     control flow by label
//	call @printf            import call through the GOT
//
// Memory operands: [rax], [rax+8], [rax+rcx*8-0x10], [rip+sym] (data
// symbol reference), qword/xmmword ptr prefixes are accepted and ignored
// (width comes from the opcode).
func Assemble(name, src string) (img *obj.Image, err error) {
	b := NewBuilder(name)
	a := &assembler{b: b}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("asm: %v", r)
		}
	}()
	for ln, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		if line == "" {
			continue
		}
		if err := a.line(line); err != nil {
			return nil, fmt.Errorf("asm: line %d: %q: %w", ln+1, strings.TrimSpace(raw), err)
		}
	}
	return b.Build()
}

func stripComment(s string) string {
	if i := strings.IndexAny(s, ";#"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

type assembler struct {
	b *Builder
}

func (a *assembler) line(line string) error {
	// Directives.
	if strings.HasPrefix(line, ".") {
		return a.directive(line)
	}
	// Label.
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		a.b.Label(strings.TrimSuffix(line, ":"))
		return nil
	}
	return a.instruction(line)
}

func (a *assembler) directive(line string) error {
	fields := splitFields(line)
	switch fields[0] {
	case ".func":
		if len(fields) != 2 {
			return fmt.Errorf(".func needs a name")
		}
		a.b.Func(fields[1])
	case ".entry":
		if len(fields) != 2 {
			return fmt.Errorf(".entry needs a name")
		}
		a.b.SetEntry(fields[1])
	case ".double", ".rodouble":
		if len(fields) < 3 {
			return fmt.Errorf("%s needs a name and values", fields[0])
		}
		vals := make([]float64, 0, len(fields)-2)
		for _, f := range fields[2:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		if fields[0] == ".double" {
			a.b.Double(fields[1], vals...)
		} else {
			a.b.RoDouble(fields[1], vals...)
		}
	case ".quad":
		if len(fields) < 3 {
			return fmt.Errorf(".quad needs a name and values")
		}
		vals := make([]uint64, 0, len(fields)-2)
		for _, f := range fields[2:] {
			v, err := strconv.ParseUint(f, 0, 64)
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		a.b.Quad(fields[1], vals...)
	case ".space":
		if len(fields) != 3 {
			return fmt.Errorf(".space needs a name and size")
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return err
		}
		a.b.Space(fields[1], n)
	case ".string":
		i := strings.Index(line, "\"")
		j := strings.LastIndex(line, "\"")
		if i < 0 || j <= i || len(fields) < 2 {
			return fmt.Errorf(".string needs a name and a quoted literal")
		}
		text, err := strconv.Unquote(line[i : j+1])
		if err != nil {
			return err
		}
		a.b.RoBytes(fields[1], append([]byte(text), 0))
	default:
		return fmt.Errorf("unknown directive %s", fields[0])
	}
	return nil
}

// mnemonicOps maps a mnemonic to candidate opcodes; the operand shapes
// disambiguate width variants (e.g. movsd load vs store).
var mnemonicOps = map[string][]isa.Op{
	"nop": {isa.NOP}, "hlt": {isa.HLT}, "int3": {isa.INT3}, "syscall": {isa.SYSCALL},
	"ret": {isa.RET}, "call": {isa.CALL, isa.CALLR}, "jmp": {isa.JMP, isa.JMPR},
	"je": {isa.JE}, "jne": {isa.JNE}, "jl": {isa.JL}, "jle": {isa.JLE},
	"jg": {isa.JG}, "jge": {isa.JGE}, "jb": {isa.JB}, "jbe": {isa.JBE},
	"ja": {isa.JA}, "jae": {isa.JAE}, "js": {isa.JS}, "jns": {isa.JNS},
	"jp": {isa.JP}, "jnp": {isa.JNP},

	"mov":    {isa.MOV64RR, isa.MOV64RM, isa.MOV64MR, isa.MOV64RI},
	"movzx":  {isa.MOVZX8},
	"movsxd": {isa.MOVSXD},
	"lea":    {isa.LEA},
	"push":   {isa.PUSH}, "pop": {isa.POP}, "xchg": {isa.XCHG64},

	"add": {isa.ADD64, isa.ADD64I}, "sub": {isa.SUB64, isa.SUB64I},
	"imul": {isa.IMUL64}, "and": {isa.AND64, isa.AND64I},
	"or": {isa.OR64, isa.OR64I}, "xor": {isa.XOR64, isa.XOR64I},
	"cmp": {isa.CMP64, isa.CMP64I}, "test": {isa.TEST64},
	"shl": {isa.SHL64I}, "shr": {isa.SHR64I}, "sar": {isa.SAR64I},
	"inc": {isa.INC64}, "dec": {isa.DEC64}, "neg": {isa.NEG64}, "not": {isa.NOT64},

	"addsd": {isa.ADDSD}, "subsd": {isa.SUBSD}, "mulsd": {isa.MULSD},
	"divsd": {isa.DIVSD}, "sqrtsd": {isa.SQRTSD}, "minsd": {isa.MINSD},
	"maxsd": {isa.MAXSD}, "ucomisd": {isa.UCOMISD}, "comisd": {isa.COMISD},
	"cmpeqsd": {isa.CMPEQSD}, "cmpltsd": {isa.CMPLTSD}, "cmplesd": {isa.CMPLESD},
	"cmpneqsd": {isa.CMPNEQSD},
	"addpd":    {isa.ADDPD}, "subpd": {isa.SUBPD}, "mulpd": {isa.MULPD},
	"divpd": {isa.DIVPD}, "sqrtpd": {isa.SQRTPD},
	"cvtsi2sd": {isa.CVTSI2SD}, "cvtsd2si": {isa.CVTSD2SI}, "cvttsd2si": {isa.CVTTSD2SI},

	"movsd":  {isa.MOVSDXX, isa.MOVSDXM, isa.MOVSDMX},
	"movapd": {isa.MOVAPDXX, isa.MOVAPDXM, isa.MOVAPDMX},
	"movupd": {isa.MOVUPDXM, isa.MOVUPDMX},
	"movq":   {isa.MOVQXG, isa.MOVQGX, isa.MOVQXM, isa.MOVQMX},
	"movhpd": {isa.MOVHPDXM, isa.MOVHPDMX},
	"movlpd": {isa.MOVLPDXM, isa.MOVLPDMX},
	"xorpd":  {isa.XORPD}, "andpd": {isa.ANDPD}, "orpd": {isa.ORPD}, "pxor": {isa.PXOR},
	"unpcklpd": {isa.UNPCKLPD}, "unpckhpd": {isa.UNPCKHPD},
}

// operand is the parsed form before shape resolution.
type operand struct {
	kind    byte // 'g' gpr, 'x' xmm, 'm' memory, 'i' imm, 'l' label/symbol
	reg     isa.Reg
	mem     isa.Operand
	imm     int64
	label   string
	dataSym string // [rip+sym] reference
	impSym  string // @import reference
}

func (a *assembler) instruction(line string) error {
	mnemonic, rest, _ := strings.Cut(line, " ")
	mnemonic = strings.ToLower(strings.TrimSpace(mnemonic))
	cands, ok := mnemonicOps[mnemonic]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}

	var ops []operand
	rest = strings.TrimSpace(rest)
	if rest != "" {
		for _, part := range splitOperands(rest) {
			op, err := parseOperand(part)
			if err != nil {
				return err
			}
			ops = append(ops, op)
		}
	}
	return a.emit(mnemonic, cands, ops)
}

func (a *assembler) emit(mnemonic string, cands []isa.Op, ops []operand) error {
	// Control flow with label / import targets.
	if len(ops) == 1 && (ops[0].kind == 'l') {
		op := cands[0]
		if op.Form() == isa.FormRel {
			if ops[0].impSym != "" {
				if mnemonic != "call" {
					return fmt.Errorf("imports only via call")
				}
				a.b.CallImport(ops[0].impSym)
				return nil
			}
			a.b.Branch(op, ops[0].label)
			return nil
		}
	}

	// Pick the opcode variant whose operand shapes fit.
	for _, cand := range cands {
		if in, ok := a.shape(cand, ops); ok {
			if ds := dataRefOf(ops); ds != "" {
				// Re-route through the data-reference entry points so the
				// builder records the fixup.
				return a.emitDataRef(cand, in, ds, ops)
			}
			a.b.I(in)
			return nil
		}
	}
	return fmt.Errorf("no encoding of %q fits operands", mnemonic)
}

func dataRefOf(ops []operand) string {
	for _, o := range ops {
		if o.kind == 'm' && o.dataSym != "" {
			return o.dataSym
		}
	}
	return ""
}

func (a *assembler) emitDataRef(op isa.Op, in isa.Inst, sym string, ops []operand) error {
	switch op.Form() {
	case isa.FormRM:
		a.b.RMData(op, in.RegOp, sym)
	case isa.FormMR:
		a.b.MRData(op, sym, in.RegOp)
	case isa.FormM, isa.FormMI:
		if op.Form() == isa.FormMI {
			return fmt.Errorf("imm + data symbol unsupported in text form")
		}
		a.b.MData(op, sym)
	default:
		return fmt.Errorf("data symbol not valid here")
	}
	return nil
}

// shape tries to fit parsed operands to candidate op's encoding form.
func (a *assembler) shape(op isa.Op, ops []operand) (isa.Inst, bool) {
	cls1, cls2 := op.RegClasses()
	matchReg := func(o operand, cls isa.RegClass) (isa.Operand, bool) {
		switch {
		case o.kind == 'g' && cls == isa.ClassGPR:
			return isa.GPR(o.reg), true
		case o.kind == 'x' && cls == isa.ClassXMM:
			return isa.XMM(o.reg), true
		}
		return isa.Operand{}, false
	}
	matchRM := func(o operand, cls isa.RegClass) (isa.Operand, bool) {
		if o.kind == 'm' {
			if op.RequiresReg() {
				// This variant has no memory form (e.g. movsd xmm,xmm).
				return isa.Operand{}, false
			}
			return o.mem, true
		}
		if op.RequiresMem() {
			return isa.Operand{}, false
		}
		return matchReg(o, cls)
	}

	switch op.Form() {
	case isa.FormNone:
		if len(ops) == 0 {
			return isa.MakeNullary(op), true
		}
	case isa.FormRM:
		if len(ops) != 2 {
			return isa.Inst{}, false
		}
		r, ok1 := matchReg(ops[0], cls1)
		m, ok2 := matchRM(ops[1], cls2)
		if ok1 && ok2 {
			return isa.MakeRM(op, r, m), true
		}
	case isa.FormMR:
		if len(ops) != 2 {
			return isa.Inst{}, false
		}
		m, ok1 := matchRM(ops[0], cls1)
		r, ok2 := matchReg(ops[1], cls2)
		if ok1 && ok2 && ops[0].kind == 'm' {
			return isa.MakeRM(op, r, m), true // FormMR layout shares fields
		}
	case isa.FormMI:
		if len(ops) != 2 || ops[1].kind != 'i' {
			return isa.Inst{}, false
		}
		m, ok := matchRM(ops[0], cls1)
		if ok {
			return isa.MakeMI(op, m, ops[1].imm), true
		}
	case isa.FormM:
		if len(ops) != 1 {
			return isa.Inst{}, false
		}
		m, ok := matchRM(ops[0], cls1)
		if ok {
			return isa.MakeM(op, m), true
		}
	}
	return isa.Inst{}, false
}

func splitFields(s string) []string { return strings.Fields(s) }

// splitOperands splits on commas outside brackets.
func splitOperands(s string) []string {
	var out []string
	depth := 0
	cur := strings.Builder{}
	for _, r := range s {
		switch r {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(cur.String()))
				cur.Reset()
				continue
			}
		}
		cur.WriteRune(r)
	}
	if t := strings.TrimSpace(cur.String()); t != "" {
		out = append(out, t)
	}
	return out
}

func parseOperand(s string) (operand, error) {
	s = strings.TrimSpace(s)
	// Strip width keywords.
	for _, kw := range []string{"byte ptr", "word ptr", "dword ptr", "qword ptr", "xmmword ptr"} {
		s = strings.TrimSpace(strings.TrimPrefix(s, kw))
	}
	if strings.HasPrefix(s, "@") {
		return operand{kind: 'l', impSym: s[1:]}, nil
	}
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		return parseMem(s[1 : len(s)-1])
	}
	if r, ok := isa.GPRByName(strings.ToLower(s)); ok {
		return operand{kind: 'g', reg: r}, nil
	}
	if r, ok := isa.XMMByName(strings.ToLower(s)); ok {
		return operand{kind: 'x', reg: r}, nil
	}
	if v, err := strconv.ParseInt(s, 0, 64); err == nil {
		return operand{kind: 'i', imm: v}, nil
	}
	if v, err := strconv.ParseUint(s, 0, 64); err == nil {
		return operand{kind: 'i', imm: int64(v)}, nil
	}
	// Bare identifier: a label (branch target).
	return operand{kind: 'l', label: s}, nil
}

// parseMem parses "base + index*scale + disp" / "rip + sym".
func parseMem(s string) (operand, error) {
	out := operand{kind: 'm', mem: isa.Operand{Kind: isa.KindMem, Base: isa.NoReg, Index: isa.NoReg, Scale: 1}}
	// Normalize minus signs into "+-".
	s = strings.ReplaceAll(s, "-", "+-")
	for _, term := range strings.Split(s, "+") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		lower := strings.ToLower(term)
		switch {
		case lower == "rip":
			out.mem.RIPRel = true
		case strings.Contains(term, "*"):
			idx, scale, ok := strings.Cut(term, "*")
			if !ok {
				return out, fmt.Errorf("bad index term %q", term)
			}
			r, okr := isa.GPRByName(strings.ToLower(strings.TrimSpace(idx)))
			if !okr {
				return out, fmt.Errorf("bad index register %q", idx)
			}
			n, err := strconv.Atoi(strings.TrimSpace(scale))
			if err != nil {
				return out, err
			}
			out.mem.Index = r
			out.mem.Scale = uint8(n)
		default:
			if r, ok := isa.GPRByName(lower); ok {
				out.mem.Base = r
				continue
			}
			if v, err := strconv.ParseInt(term, 0, 64); err == nil {
				out.mem.Disp += int32(v)
				continue
			}
			// A symbol: only valid with rip.
			out.dataSym = term
		}
	}
	if out.dataSym != "" && !out.mem.RIPRel {
		return out, fmt.Errorf("data symbol requires rip-relative addressing")
	}
	return out, nil
}
