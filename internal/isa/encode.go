package isa

import (
	"encoding/binary"
	"fmt"
)

// The binary encoding follows the x64 scheme closely so that decode is a
// genuinely variable-length, multi-step process (which is why FPVM's decode
// cache matters):
//
//	[REX]? [0x0F]? opcode [modrm [sib] [disp8|disp32]]? [imm8|imm32|imm64]?
//
// REX is 0x40|R<<2|X<<1|B and is emitted only when a register number >= 8
// appears, so common encodings stay short. modrm/sib semantics mirror x64:
//
//	mode 0: [rm]; rm=100 -> SIB; rm=101 -> [rip+disp32]
//	mode 1: [rm+disp8];  rm=100 -> SIB+disp8
//	mode 2: [rm+disp32]; rm=100 -> SIB+disp32
//	mode 3: register direct
//	SIB: scale<<6|index<<3|base; index=100 (no REX.X) -> none;
//	     mode 0 and base=101 (no REX.B) -> absolute disp32, no base
const (
	escByte = 0x0F
	rexBase = 0x40
	rexB    = 1 << 0
	rexX    = 1 << 1
	rexR    = 1 << 2
)

// MaxInstLen is the maximum encoded instruction length in bytes.
const MaxInstLen = 16

// ErrEncode wraps encoding failures.
type EncodeError struct {
	Op  Op
	Msg string
}

func (e *EncodeError) Error() string {
	return fmt.Sprintf("isa: cannot encode %s: %s", e.Op, e.Msg)
}

// AppendEncode appends the encoding of inst to dst and returns the extended
// slice. Only Op, RegOp, RMOp and Imm are consulted.
func AppendEncode(dst []byte, in *Inst) ([]byte, error) {
	info := &opTab[in.Op]
	if in.Op == INVALID || in.Op >= NumOps || info.name == "" {
		return dst, &EncodeError{in.Op, "unknown opcode"}
	}

	switch info.form {
	case FormNone:
		return appendOpcode(dst, info), nil

	case FormRel:
		dst = appendOpcode(dst, info)
		return binary.LittleEndian.AppendUint32(dst, uint32(int32(in.Imm))), nil

	case FormRM, FormMR, FormRMI:
		if err := checkRegOperand(in.Op, in.RegOp, info.cls[0]); err != nil {
			return dst, err
		}
		if err := checkRMOperand(in.Op, in.RMOp, info.cls[1]); err != nil {
			return dst, err
		}
		body, err := encodeModRM(in.RegOp.Reg, in.RMOp)
		if err != nil {
			return dst, &EncodeError{in.Op, err.Error()}
		}
		dst = appendBody(dst, info, body)
		return appendImm(dst, info, in.Imm), nil

	case FormMI, FormM:
		if err := checkRMOperand(in.Op, in.RMOp, info.cls[0]); err != nil {
			return dst, err
		}
		body, err := encodeModRM(0, in.RMOp)
		if err != nil {
			return dst, &EncodeError{in.Op, err.Error()}
		}
		dst = appendBody(dst, info, body)
		return appendImm(dst, info, in.Imm), nil
	}
	return dst, &EncodeError{in.Op, "unknown form"}
}

// Encode encodes inst into a fresh byte slice.
func Encode(in *Inst) ([]byte, error) {
	return AppendEncode(make([]byte, 0, MaxInstLen), in)
}

// EncodedLen returns the encoded length of inst without allocating.
func EncodedLen(in *Inst) (int, error) {
	b, err := AppendEncode(make([]byte, 0, MaxInstLen), in)
	return len(b), err
}

func appendOpcode(dst []byte, info *opInfo) []byte {
	if info.escape {
		dst = append(dst, escByte)
	}
	return append(dst, info.opc)
}

// modrmBody is the encoded modrm/sib/disp byte group plus the REX bits it
// requires.
type modrmBody struct {
	rex   byte
	bytes []byte
}

func appendBody(dst []byte, info *opInfo, body modrmBody) []byte {
	if body.rex != 0 {
		dst = append(dst, rexBase|body.rex)
	}
	dst = appendOpcode(dst, info)
	return append(dst, body.bytes...)
}

func appendImm(dst []byte, info *opInfo, imm int64) []byte {
	switch info.imm {
	case 0:
	case 1:
		dst = append(dst, byte(imm))
	case 4:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(imm)))
	case 8:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(imm))
	}
	return dst
}

func checkRegOperand(op Op, o Operand, cls RegClass) error {
	want := KindGPR
	if cls == ClassXMM {
		want = KindXMM
	}
	if o.Kind != want {
		return &EncodeError{op, fmt.Sprintf("reg operand %s has wrong kind", o)}
	}
	if o.Reg >= 16 {
		return &EncodeError{op, "register number out of range"}
	}
	return nil
}

func checkRMOperand(op Op, o Operand, cls RegClass) error {
	if o.Kind == KindMem {
		if op.RequiresReg() {
			return &EncodeError{op, "r/m operand must be a register"}
		}
		if o.Index != NoReg {
			if o.Index == RSP {
				return &EncodeError{op, "rsp cannot be an index register"}
			}
			switch o.Scale {
			case 1, 2, 4, 8:
			default:
				return &EncodeError{op, fmt.Sprintf("bad scale %d", o.Scale)}
			}
		}
		return nil
	}
	if op.RequiresMem() {
		return &EncodeError{op, "r/m operand must be memory"}
	}
	want := KindGPR
	if cls == ClassXMM {
		want = KindXMM
	}
	if o.Kind != want {
		return &EncodeError{op, fmt.Sprintf("r/m operand %s has wrong kind", o)}
	}
	if o.Reg >= 16 {
		return &EncodeError{op, "register number out of range"}
	}
	return nil
}

func encodeModRM(reg Reg, rm Operand) (modrmBody, error) {
	var body modrmBody
	if reg >= 8 {
		body.rex |= rexR
	}
	regBits := byte(reg & 7)

	if rm.Kind != KindMem {
		if rm.Reg >= 8 {
			body.rex |= rexB
		}
		body.bytes = append(body.bytes, 3<<6|regBits<<3|byte(rm.Reg&7))
		return body, nil
	}

	// Memory operand.
	if rm.RIPRel {
		body.bytes = append(body.bytes, 0<<6|regBits<<3|0b101)
		body.bytes = binary.LittleEndian.AppendUint32(body.bytes, uint32(rm.Disp))
		return body, nil
	}

	needSIB := rm.Index != NoReg || rm.Base == NoReg || rm.Base&7 == 0b100
	disp := rm.Disp

	var mode byte
	switch {
	case rm.Base == NoReg:
		mode = 0 // absolute via SIB base=101
	case disp == 0 && rm.Base&7 != 0b101:
		mode = 0
	case disp >= -128 && disp <= 127:
		mode = 1
	default:
		mode = 2
	}

	if !needSIB {
		if rm.Base >= 8 {
			body.rex |= rexB
		}
		body.bytes = append(body.bytes, mode<<6|regBits<<3|byte(rm.Base&7))
		switch mode {
		case 1:
			body.bytes = append(body.bytes, byte(disp))
		case 2:
			body.bytes = binary.LittleEndian.AppendUint32(body.bytes, uint32(disp))
		}
		return body, nil
	}

	// SIB path.
	var sib byte
	switch rm.Scale {
	case 0, 1:
		sib = 0 << 6
	case 2:
		sib = 1 << 6
	case 4:
		sib = 2 << 6
	case 8:
		sib = 3 << 6
	default:
		return body, fmt.Errorf("bad scale %d", rm.Scale)
	}
	if rm.Index == NoReg {
		sib |= 0b100 << 3 // no index
	} else {
		if rm.Index == RSP {
			return body, fmt.Errorf("rsp cannot be an index register")
		}
		if rm.Index >= 8 {
			body.rex |= rexX
		}
		sib |= byte(rm.Index&7) << 3
	}
	if rm.Base == NoReg {
		// mode 0, base=101: absolute disp32.
		mode = 0
		sib |= 0b101
		body.bytes = append(body.bytes, mode<<6|regBits<<3|0b100, sib)
		body.bytes = binary.LittleEndian.AppendUint32(body.bytes, uint32(disp))
		return body, nil
	}
	if mode == 0 && rm.Base&7 == 0b101 {
		mode = 1 // [rbp/r13 + index] needs an explicit disp
	}
	if rm.Base >= 8 {
		body.rex |= rexB
	}
	sib |= byte(rm.Base & 7)
	body.bytes = append(body.bytes, mode<<6|regBits<<3|0b100, sib)
	switch mode {
	case 1:
		body.bytes = append(body.bytes, byte(disp))
	case 2:
		body.bytes = binary.LittleEndian.AppendUint32(body.bytes, uint32(disp))
	}
	return body, nil
}
