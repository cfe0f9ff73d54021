package avr

// Decode decodes the instruction whose first word is w0. For two-word
// instructions (lds, sts, jmp, call) w1 must hold the following program
// word. Unrecognized encodings decode to an Instr with Op == OpInvalid;
// executing one raises a CPU fault, which is exactly how a misdirected
// ROP chain on a randomized binary ends up detected by the MAVR master
// processor.
func Decode(w0, w1 uint16) Instr {
	d5 := uint8((w0 >> 4) & 0x1F)
	r5 := uint8(((w0 >> 5) & 0x10) | (w0 & 0x0F))

	switch w0 & 0xF000 {
	case 0x0000:
		switch {
		case w0 == 0x0000:
			return Instr{Op: OpNOP, Words: 1}
		case w0&0xFF00 == 0x0100:
			return Instr{Op: OpMOVW, D: 2 * uint8((w0>>4)&0xF), R: 2 * uint8(w0&0xF), Words: 1}
		case w0&0xFF00 == 0x0200:
			return Instr{Op: OpMULS, D: 16 + uint8((w0>>4)&0xF), R: 16 + uint8(w0&0xF), Words: 1}
		case w0&0xFF88 == 0x0300:
			return Instr{Op: OpMULSU, D: 16 + uint8((w0>>4)&0x7), R: 16 + uint8(w0&0x7), Words: 1}
		case w0&0xFF00 == 0x0300:
			// fmul/fmuls/fmulsu share the 0x0300 block.
			return Instr{Op: OpFMUL, D: 16 + uint8((w0>>4)&0x7), R: 16 + uint8(w0&0x7), Words: 1}
		case w0&0xFC00 == 0x0400:
			return Instr{Op: OpCPC, D: d5, R: r5, Words: 1}
		case w0&0xFC00 == 0x0800:
			return Instr{Op: OpSBC, D: d5, R: r5, Words: 1}
		default: // 0x0C00
			return Instr{Op: OpADD, D: d5, R: r5, Words: 1}
		}
	case 0x1000:
		switch w0 & 0xFC00 {
		case 0x1000:
			return Instr{Op: OpCPSE, D: d5, R: r5, Words: 1}
		case 0x1400:
			return Instr{Op: OpCP, D: d5, R: r5, Words: 1}
		case 0x1800:
			return Instr{Op: OpSUB, D: d5, R: r5, Words: 1}
		default:
			return Instr{Op: OpADC, D: d5, R: r5, Words: 1}
		}
	case 0x2000:
		switch w0 & 0xFC00 {
		case 0x2000:
			return Instr{Op: OpAND, D: d5, R: r5, Words: 1}
		case 0x2400:
			return Instr{Op: OpEOR, D: d5, R: r5, Words: 1}
		case 0x2800:
			return Instr{Op: OpOR, D: d5, R: r5, Words: 1}
		default:
			return Instr{Op: OpMOV, D: d5, R: r5, Words: 1}
		}
	case 0x3000:
		return immInstr(OpCPI, w0)
	case 0x4000:
		return immInstr(OpSBCI, w0)
	case 0x5000:
		return immInstr(OpSUBI, w0)
	case 0x6000:
		return immInstr(OpORI, w0)
	case 0x7000:
		return immInstr(OpANDI, w0)
	case 0x8000, 0xA000:
		return decodeLDDSTD(w0)
	case 0x9000:
		return decode9xxx(w0, w1)
	case 0xB000:
		a := uint8(((w0 >> 5) & 0x30) | (w0 & 0x0F))
		if w0&0x0800 == 0 {
			return Instr{Op: OpIN, D: d5, A: a, Words: 1}
		}
		return Instr{Op: OpOUT, D: d5, A: a, Words: 1}
	case 0xC000:
		return Instr{Op: OpRJMP, K: signExtend(w0&0x0FFF, 12), Words: 1}
	case 0xD000:
		return Instr{Op: OpRCALL, K: signExtend(w0&0x0FFF, 12), Words: 1}
	case 0xE000:
		return immInstr(OpLDI, w0)
	default: // 0xF000
		return decodeFxxx(w0)
	}
}

// DecodeAt decodes the instruction at word address pc in the given
// byte-addressed flash image.
func DecodeAt(flash []byte, pc uint32) Instr {
	w0 := wordAt(flash, pc)
	var w1 uint16
	if int(pc+1)*2+1 < len(flash) {
		w1 = wordAt(flash, pc+1)
	}
	return Decode(w0, w1)
}

// InstrWords returns the length in words (1 or 2) of the instruction
// whose first word is w0, without fully decoding it. Needed by the skip
// instructions (cpse/sbrc/sbrs/sbic/sbis) and by linear sweeps.
func InstrWords(w0 uint16) int {
	switch {
	case w0&0xFE0F == 0x9000, w0&0xFE0F == 0x9200: // lds/sts
		return 2
	case w0&0xFE0E == 0x940C, w0&0xFE0E == 0x940E: // jmp/call
		return 2
	}
	return 1
}

func wordAt(flash []byte, pc uint32) uint16 {
	i := int(pc) * 2
	if i+1 >= len(flash) {
		return 0xFFFF
	}
	return uint16(flash[i]) | uint16(flash[i+1])<<8
}

func immInstr(op Op, w0 uint16) Instr {
	return Instr{
		Op:    op,
		D:     16 + uint8((w0>>4)&0xF),
		K:     int16(((w0 >> 4) & 0xF0) | (w0 & 0xF)),
		Words: 1,
	}
}

func decodeLDDSTD(w0 uint16) Instr {
	q := uint8(((w0>>13)&1)<<5 | ((w0>>10)&3)<<3 | (w0 & 7))
	d := uint8((w0 >> 4) & 0x1F)
	store := w0&0x0200 != 0
	useY := w0&0x0008 != 0
	op := OpLDDZ
	switch {
	case store && useY:
		op = OpSTDY
	case store:
		op = OpSTDZ
	case useY:
		op = OpLDDY
	}
	return Instr{Op: op, D: d, Q: q, Words: 1}
}

// ldstModes maps the low nibble of the 0x9000/0x9200 ld/st block to its
// load and store opcodes. A zero (OpInvalid) load marks an unmapped
// mode. Package-level so decode9xxx stays allocation-free on the hot
// path.
var ldstModes = [16]struct{ load, st Op }{
	0x1: {OpLDZInc, OpSTZInc},
	0x2: {OpLDZDec, OpSTZDec},
	0x9: {OpLDYInc, OpSTYInc},
	0xA: {OpLDYDec, OpSTYDec},
	0xC: {OpLDX, OpSTX},
	0xD: {OpLDXInc, OpSTXInc},
	0xE: {OpLDXDec, OpSTXDec},
	0xF: {OpPOP, OpPUSH},
}

func decode9xxx(w0, w1 uint16) Instr {
	d := uint8((w0 >> 4) & 0x1F)
	switch {
	case w0&0xFE00 == 0x9000 || w0&0xFE00 == 0x9200:
		store := w0&0x0200 != 0
		mode := w0 & 0xF
		switch mode {
		case 0x0:
			if store {
				return Instr{Op: OpSTS, D: d, Target: uint32(w1), Words: 2}
			}
			return Instr{Op: OpLDS, D: d, Target: uint32(w1), Words: 2}
		case 0x4:
			if !store {
				return Instr{Op: OpLPMZ, D: d, Words: 1}
			}
		case 0x5:
			if !store {
				return Instr{Op: OpLPMZInc, D: d, Words: 1}
			}
		case 0x6:
			if !store {
				return Instr{Op: OpELPMZ, D: d, Words: 1}
			}
		case 0x7:
			if !store {
				return Instr{Op: OpELPMZInc, D: d, Words: 1}
			}
		default:
			if p := ldstModes[mode]; p.load != OpInvalid {
				op := p.load
				if store {
					op = p.st
				}
				return Instr{Op: op, D: d, Words: 1}
			}
		}
		return Instr{Op: OpInvalid, Words: 1}

	case w0&0xFE08 == 0x9400 || w0&0xFE08 == 0x9408:
		// One-operand ALU ops and the misc block.
		switch w0 & 0xF {
		case 0x0:
			return Instr{Op: OpCOM, D: d, Words: 1}
		case 0x1:
			return Instr{Op: OpNEG, D: d, Words: 1}
		case 0x2:
			return Instr{Op: OpSWAP, D: d, Words: 1}
		case 0x3:
			return Instr{Op: OpINC, D: d, Words: 1}
		case 0x5:
			return Instr{Op: OpASR, D: d, Words: 1}
		case 0x6:
			return Instr{Op: OpLSR, D: d, Words: 1}
		case 0x7:
			return Instr{Op: OpROR, D: d, Words: 1}
		case 0xA:
			return Instr{Op: OpDEC, D: d, Words: 1}
		case 0x8:
			return decodeMisc8(w0)
		case 0x9:
			switch w0 {
			case 0x9409:
				return Instr{Op: OpIJMP, Words: 1}
			case 0x9419:
				return Instr{Op: OpEIJMP, Words: 1}
			case 0x9509:
				return Instr{Op: OpICALL, Words: 1}
			case 0x9519:
				return Instr{Op: OpEICALL, Words: 1}
			}
			return Instr{Op: OpInvalid, Words: 1}
		case 0xC, 0xD:
			return Instr{Op: OpJMP, Target: longTarget(w0, w1), Words: 2}
		case 0xE, 0xF:
			return Instr{Op: OpCALL, Target: longTarget(w0, w1), Words: 2}
		}
		return Instr{Op: OpInvalid, Words: 1}

	case w0&0xFF00 == 0x9600:
		return Instr{Op: OpADIW, D: 24 + 2*uint8((w0>>4)&3), K: int16(((w0>>6)&3)<<4 | (w0 & 0xF)), Words: 1}
	case w0&0xFF00 == 0x9700:
		return Instr{Op: OpSBIW, D: 24 + 2*uint8((w0>>4)&3), K: int16(((w0>>6)&3)<<4 | (w0 & 0xF)), Words: 1}
	case w0&0xFF00 == 0x9800:
		return Instr{Op: OpCBI, A: uint8((w0 >> 3) & 0x1F), B: uint8(w0 & 7), Words: 1}
	case w0&0xFF00 == 0x9900:
		return Instr{Op: OpSBIC, A: uint8((w0 >> 3) & 0x1F), B: uint8(w0 & 7), Words: 1}
	case w0&0xFF00 == 0x9A00:
		return Instr{Op: OpSBI, A: uint8((w0 >> 3) & 0x1F), B: uint8(w0 & 7), Words: 1}
	case w0&0xFF00 == 0x9B00:
		return Instr{Op: OpSBIS, A: uint8((w0 >> 3) & 0x1F), B: uint8(w0 & 7), Words: 1}
	case w0&0xFC00 == 0x9C00:
		return Instr{Op: OpMUL, D: d, R: uint8(((w0 >> 5) & 0x10) | (w0 & 0xF)), Words: 1}
	}
	return Instr{Op: OpInvalid, Words: 1}
}

func decodeMisc8(w0 uint16) Instr {
	switch w0 {
	case 0x9508:
		return Instr{Op: OpRET, Words: 1}
	case 0x9518:
		return Instr{Op: OpRETI, Words: 1}
	case 0x9588:
		return Instr{Op: OpSLEEP, Words: 1}
	case 0x9598:
		return Instr{Op: OpBREAK, Words: 1}
	case 0x95A8:
		return Instr{Op: OpWDR, Words: 1}
	case 0x95C8:
		return Instr{Op: OpLPM, Words: 1}
	case 0x95D8:
		return Instr{Op: OpELPM, Words: 1}
	case 0x95E8:
		return Instr{Op: OpSPM, Words: 1}
	}
	if w0&0xFF8F == 0x9408 {
		return Instr{Op: OpBSET, D: uint8((w0 >> 4) & 7), Words: 1}
	}
	if w0&0xFF8F == 0x9488 {
		return Instr{Op: OpBCLR, D: uint8((w0 >> 4) & 7), Words: 1}
	}
	return Instr{Op: OpInvalid, Words: 1}
}

func decodeFxxx(w0 uint16) Instr {
	switch w0 & 0xFC00 {
	case 0xF000:
		return Instr{Op: OpBRBS, D: uint8(w0 & 7), K: signExtend((w0>>3)&0x7F, 7), Words: 1}
	case 0xF400:
		return Instr{Op: OpBRBC, D: uint8(w0 & 7), K: signExtend((w0>>3)&0x7F, 7), Words: 1}
	}
	if w0&0x0008 != 0 {
		return Instr{Op: OpInvalid, Words: 1}
	}
	d := uint8((w0 >> 4) & 0x1F)
	b := uint8(w0 & 7)
	switch w0 & 0xFE00 {
	case 0xF800:
		return Instr{Op: OpBLD, D: d, B: b, Words: 1}
	case 0xFA00:
		return Instr{Op: OpBST, D: d, B: b, Words: 1}
	case 0xFC00:
		return Instr{Op: OpSBRC, D: d, B: b, Words: 1}
	default:
		return Instr{Op: OpSBRS, D: d, B: b, Words: 1}
	}
}

// longTarget extracts the 22-bit word target of a jmp/call.
func longTarget(w0, w1 uint16) uint32 {
	hi := uint32((w0>>3)&0x3E) | uint32(w0&1)
	return hi<<16 | uint32(w1)
}

func signExtend(v uint16, bits uint) int16 {
	if v&(1<<(bits-1)) != 0 {
		return int16(v) - 1<<bits
	}
	return int16(v)
}
