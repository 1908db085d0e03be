package isa

import (
	"encoding/binary"
	"fmt"
)

// DecodeError describes a failure to decode an instruction.
type DecodeError struct {
	Addr uint64
	Msg  string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: decode at %#x: %s", e.Addr, e.Msg)
}

// Decode decodes one instruction from code, which must start at the
// instruction boundary. addr is the virtual address of code[0] (used for
// Inst.Addr and RIP-relative/branch math). The returned instruction's Len
// reports how many bytes were consumed.
//
// Decode is intentionally a multi-step parse (prefix, escape, opcode,
// modrm, sib, displacement, immediate) mirroring the cost structure that
// motivates FPVM's decode cache.
func Decode(code []byte, addr uint64) (Inst, error) {
	var in Inst
	in.Addr = addr
	p := 0
	need := func(n int) error {
		if p+n > len(code) {
			return &DecodeError{addr, "truncated instruction"}
		}
		return nil
	}

	// Optional REX prefix.
	var rex byte
	if err := need(1); err != nil {
		return in, err
	}
	if code[p]&0xF0 == rexBase {
		rex = code[p]
		p++
	}

	// Opcode (with optional escape).
	if err := need(1); err != nil {
		return in, err
	}
	var op Op
	if code[p] == escByte {
		p++
		if err := need(1); err != nil {
			return in, err
		}
		op = page1[code[p]]
	} else {
		op = page0[code[p]]
	}
	p++
	if op == INVALID {
		return in, &DecodeError{addr, fmt.Sprintf("unknown opcode byte %#x", code[p-1])}
	}
	in.Op = op
	info := &opTab[op]
	if rex != 0 && info.form == FormNone {
		return in, &DecodeError{addr, "REX prefix on prefix-less form"}
	}

	switch info.form {
	case FormNone:
		// done
	case FormRel:
		if err := need(4); err != nil {
			return in, err
		}
		in.Imm = int64(int32(binary.LittleEndian.Uint32(code[p:])))
		p += 4
	default:
		var err error
		p, err = decodeModRM(&in, info, code, p, rex, addr)
		if err != nil {
			return in, err
		}
		switch info.imm {
		case 1:
			if err := need(1); err != nil {
				return in, err
			}
			in.Imm = int64(int8(code[p]))
			p++
		case 4:
			if err := need(4); err != nil {
				return in, err
			}
			in.Imm = int64(int32(binary.LittleEndian.Uint32(code[p:])))
			p += 4
		case 8:
			if err := need(8); err != nil {
				return in, err
			}
			in.Imm = int64(binary.LittleEndian.Uint64(code[p:]))
			p += 8
		}
	}
	in.Len = uint8(p)
	return in, nil
}

func decodeModRM(in *Inst, info *opInfo, code []byte, p int, rex byte, addr uint64) (int, error) {
	if p >= len(code) {
		return p, &DecodeError{addr, "truncated modrm"}
	}
	modrm := code[p]
	p++
	mode := modrm >> 6
	regBits := Reg(modrm >> 3 & 7)
	rmBits := Reg(modrm & 7)

	if rex&rexR != 0 {
		regBits |= 8
	}

	// reg-field operand (unused for FormMI/FormM but harmlessly decoded;
	// encoders emit 0 there).
	regCls, rmCls := info.cls[0], info.cls[1]
	switch info.form {
	case FormMI, FormM:
		// single r/m operand; class is cls[0]
		rmCls = info.cls[0]
		if regBits&7 != 0 {
			return p, &DecodeError{addr, "nonzero reg extension field"}
		}
	default:
		if regCls == ClassXMM {
			in.RegOp = XMM(regBits)
		} else {
			in.RegOp = GPR(regBits)
		}
	}

	if mode == 3 {
		if rex&rexB != 0 {
			rmBits |= 8
		}
		if info.flags&flagMemAlways != 0 {
			return p, &DecodeError{addr, "register r/m on memory-only instruction"}
		}
		if rmCls == ClassXMM {
			in.RMOp = XMM(rmBits)
		} else {
			in.RMOp = GPR(rmBits)
		}
		return p, nil
	}
	if in.Op.RequiresReg() {
		return p, &DecodeError{addr, "memory r/m on register-only instruction"}
	}

	// Memory operand.
	mem := Operand{Kind: KindMem, Base: NoReg, Index: NoReg, Scale: 1}
	dispBytes := 0
	switch mode {
	case 1:
		dispBytes = 1
	case 2:
		dispBytes = 4
	}

	switch {
	case mode == 0 && rmBits == 0b101:
		// RIP-relative + disp32.
		mem.RIPRel = true
		dispBytes = 4
	case rmBits == 0b100:
		// SIB byte follows.
		if p >= len(code) {
			return p, &DecodeError{addr, "truncated sib"}
		}
		sib := code[p]
		p++
		scaleBits := sib >> 6
		idxBits := Reg(sib >> 3 & 7)
		baseBits := Reg(sib & 7)
		if rex&rexX != 0 {
			idxBits |= 8
		}
		if idxBits != 0b100 { // 100 without REX.X means "no index"
			mem.Index = idxBits
			mem.Scale = 1 << scaleBits
		}
		if mode == 0 && baseBits == 0b101 && rex&rexB == 0 {
			// Absolute: no base, disp32.
			dispBytes = 4
		} else {
			if rex&rexB != 0 {
				baseBits |= 8
			}
			mem.Base = baseBits
		}
	default:
		b := rmBits
		if rex&rexB != 0 {
			b |= 8
		}
		mem.Base = b
	}

	switch dispBytes {
	case 1:
		if p >= len(code) {
			return p, &DecodeError{addr, "truncated disp8"}
		}
		mem.Disp = int32(int8(code[p]))
		p++
	case 4:
		if p+4 > len(code) {
			return p, &DecodeError{addr, "truncated disp32"}
		}
		mem.Disp = int32(binary.LittleEndian.Uint32(code[p:]))
		p += 4
	}
	in.RMOp = mem
	return p, nil
}
