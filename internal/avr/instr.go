package avr

// Op identifies a decoded AVR instruction mnemonic.
type Op uint8

// Supported opcodes. The set covers the AVRe+ core instructions emitted
// by avr-gcc for the ATmega2560 plus everything the MAVR paper's gadgets
// use (out/pop/ret chains, std Y+q, stack-pointer writes).
const (
	OpInvalid Op = iota
	OpNOP
	OpMOVW
	OpCPC
	OpSBC
	OpADD
	OpCPSE
	OpCP
	OpSUB
	OpADC
	OpAND
	OpEOR
	OpOR
	OpMOV
	OpCPI
	OpSBCI
	OpSUBI
	OpORI
	OpANDI
	OpLDI
	OpLDS // 32-bit form
	OpSTS // 32-bit form
	OpLDX
	OpLDXInc
	OpLDXDec
	OpLDYInc
	OpLDYDec
	OpLDZInc
	OpLDZDec
	OpLDDY // ldd Rd, Y+q (q may be 0: "ld Rd, Y")
	OpLDDZ
	OpSTX
	OpSTXInc
	OpSTXDec
	OpSTYInc
	OpSTYDec
	OpSTZInc
	OpSTZDec
	OpSTDY // std Y+q, Rr
	OpSTDZ
	OpLPM  // lpm r0, Z (implied)
	OpLPMZ // lpm Rd, Z
	OpLPMZInc
	OpELPM  // elpm r0, Z (implied)
	OpELPMZ // elpm Rd, Z
	OpELPMZInc
	OpPUSH
	OpPOP
	OpCOM
	OpNEG
	OpSWAP
	OpINC
	OpASR
	OpLSR
	OpROR
	OpDEC
	OpBSET
	OpBCLR
	OpIJMP
	OpEIJMP
	OpICALL
	OpEICALL
	OpRET
	OpRETI
	OpSLEEP
	OpBREAK
	OpWDR
	OpSPM
	OpJMP  // 32-bit
	OpCALL // 32-bit
	OpADIW
	OpSBIW
	OpCBI
	OpSBIC
	OpSBI
	OpSBIS
	OpMUL
	OpMULS
	OpMULSU
	OpFMUL
	OpIN
	OpOUT
	OpRJMP
	OpRCALL
	OpBRBS
	OpBRBC
	OpBLD
	OpBST
	OpSBRC
	OpSBRS
)

var opNames = map[Op]string{
	OpInvalid: "(invalid)", OpNOP: "nop", OpMOVW: "movw", OpCPC: "cpc",
	OpSBC: "sbc", OpADD: "add", OpCPSE: "cpse", OpCP: "cp", OpSUB: "sub",
	OpADC: "adc", OpAND: "and", OpEOR: "eor", OpOR: "or", OpMOV: "mov",
	OpCPI: "cpi", OpSBCI: "sbci", OpSUBI: "subi", OpORI: "ori",
	OpANDI: "andi", OpLDI: "ldi", OpLDS: "lds", OpSTS: "sts",
	OpLDX: "ld", OpLDXInc: "ld", OpLDXDec: "ld", OpLDYInc: "ld",
	OpLDYDec: "ld", OpLDZInc: "ld", OpLDZDec: "ld", OpLDDY: "ldd",
	OpLDDZ: "ldd", OpSTX: "st", OpSTXInc: "st", OpSTXDec: "st",
	OpSTYInc: "st", OpSTYDec: "st", OpSTZInc: "st", OpSTZDec: "st",
	OpSTDY: "std", OpSTDZ: "std", OpLPM: "lpm", OpLPMZ: "lpm",
	OpLPMZInc: "lpm", OpELPM: "elpm", OpELPMZ: "elpm", OpELPMZInc: "elpm",
	OpPUSH: "push", OpPOP: "pop", OpCOM: "com", OpNEG: "neg",
	OpSWAP: "swap", OpINC: "inc", OpASR: "asr", OpLSR: "lsr",
	OpROR: "ror", OpDEC: "dec", OpBSET: "bset", OpBCLR: "bclr",
	OpIJMP: "ijmp", OpEIJMP: "eijmp", OpICALL: "icall", OpEICALL: "eicall",
	OpRET: "ret", OpRETI: "reti", OpSLEEP: "sleep", OpBREAK: "break",
	OpWDR: "wdr", OpSPM: "spm", OpJMP: "jmp", OpCALL: "call",
	OpADIW: "adiw", OpSBIW: "sbiw", OpCBI: "cbi", OpSBIC: "sbic",
	OpSBI: "sbi", OpSBIS: "sbis", OpMUL: "mul", OpMULS: "muls",
	OpMULSU: "mulsu", OpFMUL: "fmul", OpIN: "in", OpOUT: "out",
	OpRJMP: "rjmp", OpRCALL: "rcall", OpBRBS: "brbs", OpBRBC: "brbc",
	OpBLD: "bld", OpBST: "bst", OpSBRC: "sbrc", OpSBRS: "sbrs",
}

// String returns the instruction mnemonic.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return "(unknown)"
}

// Instr is a decoded AVR instruction. It packs into 16 bytes so the
// per-page decode tables (cache.go) stay small: every operand fits its
// field (registers ≤ 31, I/O addresses ≤ 63, displacements ≤ 12 bits).
type Instr struct {
	Op Op
	// D is the destination register index (or the sole register operand,
	// or the status-flag index for bset/bclr/brbs/brbc).
	D uint8
	// R is the source register index.
	R uint8
	// A is an I/O-space address for in/out/cbi/sbi/sbic/sbis.
	A uint8
	// Q is the displacement for ldd/std.
	Q uint8
	// B is the bit index for bld/bst/sbrc/sbrs/cbi/sbi/sbic/sbis.
	B uint8
	// Words is the instruction length in 16-bit words (1 or 2).
	Words uint8
	// K is an immediate constant: 8-bit for ldi/cpi/..., 6-bit for
	// adiw/sbiw, or a signed word displacement for rjmp/rcall/brbs/brbc.
	K int16
	// Target is the absolute word address for jmp/call and the 16-bit
	// data-space address for lds/sts.
	Target uint32
}

// Size returns the instruction length in bytes.
func (i Instr) Size() uint32 { return uint32(i.Words) * 2 }

// IsCallOrJump reports whether the instruction transfers control to an
// encoded (absolute or relative) flash target that the MAVR patcher must
// rewrite after function blocks move. Indirect transfers (ijmp/icall) go
// through function pointers, which are patched in the data section.
func (i Instr) IsCallOrJump() bool {
	switch i.Op {
	case OpJMP, OpCALL, OpRJMP, OpRCALL:
		return true
	}
	return false
}
