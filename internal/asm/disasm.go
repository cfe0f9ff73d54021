package asm

import (
	"fmt"
	"strings"

	"mavr/internal/avr"
)

// FormatInstr renders a decoded instruction as assembly text. pc is the
// instruction's own word address, used to compute absolute targets of
// relative branches.
func FormatInstr(in avr.Instr, pc uint32) string {
	reg := func(r uint8) string { return fmt.Sprintf("r%d", r) }
	next := int64(pc) + int64(in.Words)

	switch in.Op {
	case avr.OpNOP, avr.OpRET, avr.OpRETI, avr.OpIJMP, avr.OpEIJMP,
		avr.OpICALL, avr.OpEICALL, avr.OpSLEEP, avr.OpBREAK, avr.OpWDR,
		avr.OpSPM, avr.OpLPM, avr.OpELPM:
		return in.Op.String()
	case avr.OpMOVW:
		return fmt.Sprintf("movw r%d:r%d, r%d:r%d", in.D+1, in.D, in.R+1, in.R)
	case avr.OpADD, avr.OpADC, avr.OpSUB, avr.OpSBC, avr.OpAND, avr.OpOR,
		avr.OpEOR, avr.OpMOV, avr.OpCP, avr.OpCPC, avr.OpCPSE, avr.OpMUL,
		avr.OpMULS, avr.OpMULSU, avr.OpFMUL:
		return fmt.Sprintf("%s %s, %s", in.Op, reg(in.D), reg(in.R))
	case avr.OpLDI, avr.OpCPI, avr.OpSUBI, avr.OpSBCI, avr.OpORI, avr.OpANDI:
		return fmt.Sprintf("%s %s, 0x%02X", in.Op, reg(in.D), in.K)
	case avr.OpCOM, avr.OpNEG, avr.OpSWAP, avr.OpINC, avr.OpASR, avr.OpLSR,
		avr.OpROR, avr.OpDEC, avr.OpPUSH, avr.OpPOP:
		return fmt.Sprintf("%s %s", in.Op, reg(in.D))
	case avr.OpADIW, avr.OpSBIW:
		return fmt.Sprintf("%s r%d:%d, 0x%02X", in.Op, in.D+1, in.D, in.K)
	case avr.OpBSET:
		return fmt.Sprintf("bset %d", in.D)
	case avr.OpBCLR:
		return fmt.Sprintf("bclr %d", in.D)
	case avr.OpBLD, avr.OpBST, avr.OpSBRC, avr.OpSBRS:
		return fmt.Sprintf("%s %s, %d", in.Op, reg(in.D), in.B)
	case avr.OpIN:
		return fmt.Sprintf("in %s, 0x%02x", reg(in.D), in.A)
	case avr.OpOUT:
		return fmt.Sprintf("out 0x%02x, %s", in.A, reg(in.D))
	case avr.OpCBI, avr.OpSBI, avr.OpSBIC, avr.OpSBIS:
		return fmt.Sprintf("%s 0x%02x, %d", in.Op, in.A, in.B)
	case avr.OpLDS:
		return fmt.Sprintf("lds %s, 0x%04X", reg(in.D), in.Target)
	case avr.OpSTS:
		return fmt.Sprintf("sts 0x%04X, %s", in.Target, reg(in.D))
	case avr.OpLDX:
		return fmt.Sprintf("ld %s, X", reg(in.D))
	case avr.OpLDXInc:
		return fmt.Sprintf("ld %s, X+", reg(in.D))
	case avr.OpLDXDec:
		return fmt.Sprintf("ld %s, -X", reg(in.D))
	case avr.OpLDYInc:
		return fmt.Sprintf("ld %s, Y+", reg(in.D))
	case avr.OpLDYDec:
		return fmt.Sprintf("ld %s, -Y", reg(in.D))
	case avr.OpLDZInc:
		return fmt.Sprintf("ld %s, Z+", reg(in.D))
	case avr.OpLDZDec:
		return fmt.Sprintf("ld %s, -Z", reg(in.D))
	case avr.OpLDDY:
		if in.Q == 0 {
			return fmt.Sprintf("ld %s, Y", reg(in.D))
		}
		return fmt.Sprintf("ldd %s, Y+%d", reg(in.D), in.Q)
	case avr.OpLDDZ:
		if in.Q == 0 {
			return fmt.Sprintf("ld %s, Z", reg(in.D))
		}
		return fmt.Sprintf("ldd %s, Z+%d", reg(in.D), in.Q)
	case avr.OpSTX:
		return fmt.Sprintf("st X, %s", reg(in.D))
	case avr.OpSTXInc:
		return fmt.Sprintf("st X+, %s", reg(in.D))
	case avr.OpSTXDec:
		return fmt.Sprintf("st -X, %s", reg(in.D))
	case avr.OpSTYInc:
		return fmt.Sprintf("st Y+, %s", reg(in.D))
	case avr.OpSTYDec:
		return fmt.Sprintf("st -Y, %s", reg(in.D))
	case avr.OpSTZInc:
		return fmt.Sprintf("st Z+, %s", reg(in.D))
	case avr.OpSTZDec:
		return fmt.Sprintf("st -Z, %s", reg(in.D))
	case avr.OpSTDY:
		if in.Q == 0 {
			return fmt.Sprintf("st Y, %s", reg(in.D))
		}
		return fmt.Sprintf("std Y+%d, %s", in.Q, reg(in.D))
	case avr.OpSTDZ:
		if in.Q == 0 {
			return fmt.Sprintf("st Z, %s", reg(in.D))
		}
		return fmt.Sprintf("std Z+%d, %s", in.Q, reg(in.D))
	case avr.OpLPMZ:
		return fmt.Sprintf("lpm %s, Z", reg(in.D))
	case avr.OpLPMZInc:
		return fmt.Sprintf("lpm %s, Z+", reg(in.D))
	case avr.OpELPMZ:
		return fmt.Sprintf("elpm %s, Z", reg(in.D))
	case avr.OpELPMZInc:
		return fmt.Sprintf("elpm %s, Z+", reg(in.D))
	case avr.OpJMP, avr.OpCALL:
		return fmt.Sprintf("%s 0x%X", in.Op, in.Target*2)
	case avr.OpRJMP, avr.OpRCALL:
		return fmt.Sprintf("%s .%+d ; 0x%X", in.Op, in.K*2, uint32(next+int64(in.K))*2)
	case avr.OpBRBS, avr.OpBRBC:
		return fmt.Sprintf("%s %d, .%+d ; 0x%X", in.Op, in.D, in.K*2, uint32(next+int64(in.K))*2)
	}
	return "(invalid)"
}

// Disassemble renders the instructions of image (a byte-addressed flash
// slice) from word address start for n instructions, one per line, in
// the layout of the paper's Fig. 4/5 gadget tables.
func Disassemble(image []byte, start uint32, n int) string {
	var sb strings.Builder
	pc := start
	for i := 0; i < n && int(pc)*2 < len(image); i++ {
		in := avr.DecodeAt(image, pc)
		fmt.Fprintf(&sb, "%6x:\t%s\n", pc*2, FormatInstr(in, pc))
		pc += uint32(in.Words)
	}
	return sb.String()
}
