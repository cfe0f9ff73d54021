package avr

// Approximate cycle costs. Branch/skip costs are adjusted at execution
// time. These follow the ATmega2560 datasheet for the common cases.
func baseCycles(op Op) uint64 {
	switch op {
	case OpJMP:
		return 3
	case OpCALL:
		return 5 // 3-byte PC device
	case OpRCALL:
		return 4
	case OpRJMP, OpIJMP, OpADIW, OpSBIW, OpPUSH, OpPOP, OpMUL, OpMULS, OpMULSU, OpFMUL,
		OpLDX, OpLDXInc, OpLDXDec, OpLDYInc, OpLDYDec, OpLDZInc, OpLDZDec,
		OpLDDY, OpLDDZ, OpSTX, OpSTXInc, OpSTXDec, OpSTYInc, OpSTYDec,
		OpSTZInc, OpSTZDec, OpSTDY, OpSTDZ, OpLDS, OpSTS, OpCBI, OpSBI:
		return 2
	case OpEIJMP:
		return 2
	case OpICALL, OpEICALL:
		return 4
	case OpRET, OpRETI:
		return 5 // 3-byte PC device
	case OpLPM, OpLPMZ, OpLPMZInc, OpELPM, OpELPMZ, OpELPMZInc:
		return 3
	}
	return 1
}

func (c *CPU) exec(in Instr) {
	next := c.PC + uint32(in.Words)
	d, r := int(in.D), int(in.R)
	c.Cycles += baseCycles(in.Op)

	switch in.Op {
	case OpInvalid:
		c.raise(FaultInvalidOpcode, wordAt(c.Flash, c.PC))
		return

	case OpNOP, OpWDR:
		// WDR is handled by the board model, not the core.

	case OpSPM:
		c.execSPM()

	case OpSLEEP:
		c.Sleeping = true

	case OpBREAK:
		c.raise(FaultBreak, wordAt(c.Flash, c.PC))
		return

	case OpMOVW:
		c.SetRegPair(d, c.RegPair(r))

	case OpADD:
		c.SetReg(d, c.addFlags(c.Reg(d), c.Reg(r), 0))
	case OpADC:
		c.SetReg(d, c.addFlags(c.Reg(d), c.Reg(r), c.carry()))
	case OpSUB:
		c.SetReg(d, c.subFlags(c.Reg(d), c.Reg(r), 0, false))
	case OpSBC:
		c.SetReg(d, c.subFlags(c.Reg(d), c.Reg(r), c.carry(), true))
	case OpSUBI:
		c.SetReg(d, c.subFlags(c.Reg(d), byte(in.K), 0, false))
	case OpSBCI:
		c.SetReg(d, c.subFlags(c.Reg(d), byte(in.K), c.carry(), true))
	case OpCP:
		c.subFlags(c.Reg(d), c.Reg(r), 0, false)
	case OpCPC:
		c.subFlags(c.Reg(d), c.Reg(r), c.carry(), true)
	case OpCPI:
		c.subFlags(c.Reg(d), byte(in.K), 0, false)

	case OpAND:
		c.SetReg(d, c.logicFlags(c.Reg(d)&c.Reg(r)))
	case OpANDI:
		c.SetReg(d, c.logicFlags(c.Reg(d)&byte(in.K)))
	case OpOR:
		c.SetReg(d, c.logicFlags(c.Reg(d)|c.Reg(r)))
	case OpORI:
		c.SetReg(d, c.logicFlags(c.Reg(d)|byte(in.K)))
	case OpEOR:
		c.SetReg(d, c.logicFlags(c.Reg(d)^c.Reg(r)))
	case OpMOV:
		c.SetReg(d, c.Reg(r))
	case OpLDI:
		c.SetReg(d, byte(in.K))

	case OpCOM:
		c.SetReg(d, c.comFlags(^c.Reg(d)))
	case OpNEG:
		c.SetReg(d, c.subFlags(0, c.Reg(d), 0, false))
	case OpSWAP:
		v := c.Reg(d)
		c.SetReg(d, v<<4|v>>4)
	case OpINC:
		c.SetReg(d, c.incFlags(c.Reg(d)))
	case OpDEC:
		c.SetReg(d, c.decFlags(c.Reg(d)))
	case OpASR:
		v := c.Reg(d)
		c.SetReg(d, c.shiftFlags(v>>1|v&0x80, v))
	case OpLSR:
		v := c.Reg(d)
		c.SetReg(d, c.shiftFlags(v>>1, v))
	case OpROR:
		v := c.Reg(d)
		c.SetReg(d, c.shiftFlags(v>>1|c.carry()<<7, v))

	case OpMUL:
		c.SetRegPair(0, c.mulFlags(uint16(c.Reg(d))*uint16(c.Reg(r))))
	case OpMULS:
		c.SetRegPair(0, c.mulFlags(uint16(int16(int8(c.Reg(d)))*int16(int8(c.Reg(r))))))
	case OpMULSU:
		c.SetRegPair(0, c.mulFlags(uint16(int16(int8(c.Reg(d)))*int16(c.Reg(r)))))
	case OpFMUL:
		c.SetRegPair(0, c.mulFlags(uint16(int16(int8(c.Reg(d)))*int16(c.Reg(r))<<1)))

	case OpADIW:
		c.SetRegPair(d, c.adiwFlags(c.RegPair(d), uint16(in.K)))
	case OpSBIW:
		c.SetRegPair(d, c.sbiwFlags(c.RegPair(d), uint16(in.K)))

	case OpBSET:
		if d == FlagI && !c.Flag(FlagI) {
			c.intSuppress = true // sei delay
		}
		c.SetFlag(d, true)
	case OpBCLR:
		c.SetFlag(d, false)
	case OpBLD:
		v := c.Reg(d)
		if c.Flag(FlagT) {
			v |= 1 << in.B
		} else {
			v &^= 1 << in.B
		}
		c.SetReg(d, v)
	case OpBST:
		c.SetFlag(FlagT, c.Reg(d)&(1<<in.B) != 0)

	case OpIN:
		c.SetReg(d, c.ReadData(uint16(IOBase+uint16(in.A))))
	case OpOUT:
		c.WriteData(uint16(IOBase+uint16(in.A)), c.Reg(d))
	case OpCBI:
		a := uint16(IOBase + uint16(in.A))
		c.WriteData(a, c.ReadData(a)&^(1<<in.B))
	case OpSBI:
		a := uint16(IOBase + uint16(in.A))
		c.WriteData(a, c.ReadData(a)|1<<in.B)

	case OpLDS:
		c.SetReg(d, c.ReadData(uint16(in.Target)))
	case OpSTS:
		c.WriteData(uint16(in.Target), c.Reg(d))

	case OpLDX, OpLDXInc, OpLDXDec, OpSTX, OpSTXInc, OpSTXDec:
		c.execIndirect(in, RegXL)
	case OpLDYInc, OpLDYDec, OpSTYInc, OpSTYDec:
		c.execIndirect(in, RegYL)
	case OpLDZInc, OpLDZDec, OpSTZInc, OpSTZDec:
		c.execIndirect(in, RegZL)
	case OpLDDY:
		c.SetReg(d, c.ReadData(c.RegPair(RegYL)+uint16(in.Q)))
	case OpLDDZ:
		c.SetReg(d, c.ReadData(c.RegPair(RegZL)+uint16(in.Q)))
	case OpSTDY:
		c.WriteData(c.RegPair(RegYL)+uint16(in.Q), c.Reg(d))
	case OpSTDZ:
		c.WriteData(c.RegPair(RegZL)+uint16(in.Q), c.Reg(d))

	case OpLPM:
		c.SetReg(0, c.lpmByte(uint32(c.RegPair(RegZL))))
	case OpLPMZ:
		c.SetReg(d, c.lpmByte(uint32(c.RegPair(RegZL))))
	case OpLPMZInc:
		z := c.RegPair(RegZL)
		c.SetReg(d, c.lpmByte(uint32(z)))
		c.SetRegPair(RegZL, z+1)
	case OpELPM:
		c.SetReg(0, c.lpmByte(c.extZ()))
	case OpELPMZ:
		c.SetReg(d, c.lpmByte(c.extZ()))
	case OpELPMZInc:
		z := c.extZ()
		c.SetReg(d, c.lpmByte(z))
		z++
		c.SetRegPair(RegZL, uint16(z))
		c.Data[IOBase+IOAddrRAMPZ] = byte(z >> 16)

	case OpPUSH:
		c.PushByte(c.Reg(d))
	case OpPOP:
		c.SetReg(d, c.PopByte())

	case OpRJMP:
		c.setPC(uint32(int64(next) + int64(in.K)))
		return
	case OpJMP:
		c.setPC(in.Target)
		return
	case OpIJMP:
		c.setPC(uint32(c.RegPair(RegZL)))
		return
	case OpEIJMP:
		c.setPC(c.eindZ())
		return
	case OpRCALL:
		c.PushPC(next)
		c.setPC(uint32(int64(next) + int64(in.K)))
		return
	case OpCALL:
		c.PushPC(next)
		c.setPC(in.Target)
		return
	case OpICALL:
		c.PushPC(next)
		c.setPC(uint32(c.RegPair(RegZL)))
		return
	case OpEICALL:
		c.PushPC(next)
		c.setPC(c.eindZ())
		return
	case OpRET:
		c.setPC(c.PopPC())
		return
	case OpRETI:
		c.SetFlag(FlagI, true)
		c.intSuppress = true // one main-program instruction runs first
		c.setPC(c.PopPC())
		return

	case OpBRBS:
		if c.Flag(d) {
			c.Cycles++
			c.setPC(uint32(int64(next) + int64(in.K)))
			return
		}
	case OpBRBC:
		if !c.Flag(d) {
			c.Cycles++
			c.setPC(uint32(int64(next) + int64(in.K)))
			return
		}

	case OpCPSE:
		if c.Reg(d) == c.Reg(r) {
			next = c.skipNext(next)
		}
	case OpSBRC:
		if c.Reg(d)&(1<<in.B) == 0 {
			next = c.skipNext(next)
		}
	case OpSBRS:
		if c.Reg(d)&(1<<in.B) != 0 {
			next = c.skipNext(next)
		}
	case OpSBIC:
		if c.ReadData(uint16(IOBase+uint16(in.A)))&(1<<in.B) == 0 {
			next = c.skipNext(next)
		}
	case OpSBIS:
		if c.ReadData(uint16(IOBase+uint16(in.A)))&(1<<in.B) != 0 {
			next = c.skipNext(next)
		}
	}

	c.setPC(next)
}

func (c *CPU) setPC(pc uint32) {
	if pc >= FlashWords {
		c.PC = pc
		c.raise(FaultPCOutOfRange, 0)
		return
	}
	c.PC = pc
}

func (c *CPU) skipNext(next uint32) uint32 {
	w := wordAt(c.Flash, next)
	n := uint32(InstrWords(w))
	c.Cycles += uint64(n)
	return next + n
}

func (c *CPU) execIndirect(in Instr, lo int) {
	p := c.RegPair(lo)
	switch in.Op {
	case OpLDXDec, OpLDYDec, OpLDZDec, OpSTXDec, OpSTYDec, OpSTZDec:
		p--
		c.SetRegPair(lo, p)
	}
	switch in.Op {
	case OpLDX, OpLDXInc, OpLDXDec, OpLDYInc, OpLDYDec, OpLDZInc, OpLDZDec:
		c.SetReg(int(in.D), c.ReadData(p))
	default:
		c.WriteData(p, c.Reg(int(in.D)))
	}
	switch in.Op {
	case OpLDXInc, OpLDYInc, OpLDZInc, OpSTXInc, OpSTYInc, OpSTZInc:
		c.SetRegPair(lo, p+1)
	}
}

func (c *CPU) lpmByte(addr uint32) byte {
	if int(addr) >= len(c.Flash) {
		return 0xFF
	}
	return c.Flash[addr]
}

func (c *CPU) extZ() uint32 {
	return uint32(c.Data[IOBase+IOAddrRAMPZ])<<16 | uint32(c.RegPair(RegZL))
}

func (c *CPU) eindZ() uint32 {
	return uint32(c.Data[IOBase+IOAddrEIND]&1)<<16 | uint32(c.RegPair(RegZL))
}

// SREG updates. Each helper below computes every flag its instruction
// writes without branching and stores SREG once, replacing just those
// bits: the bits an instruction leaves alone (always I and T, and H, C
// or V where the datasheet says so) pass through the mask untouched.

// setFlags replaces the SREG bits in mask with bits (a subset of mask).
func (c *CPU) setFlags(mask, bits byte) {
	c.Data[AddrSREG] = c.Data[AddrSREG]&^mask | bits
}

// carry returns the C flag as 0 or 1 (C is SREG bit 0).
func (c *CPU) carry() byte { return c.Data[AddrSREG] & mC }

// zeroBit returns 1 if x is zero and 0 otherwise, for x below 1<<31.
func zeroBit(x uint32) byte { return byte((x - 1) >> 31) }

// nzsBits returns the N, Z, V and S bits for result r, given the V flag
// as 0 or 1.
func nzsBits(r, v byte) byte {
	n := r >> 7
	return zeroBit(uint32(r))<<FlagZ | n<<FlagN | v<<FlagV | (n^v)<<FlagS
}

// logicFlags sets N, Z and S from v and clears V: and, or, eor.
func (c *CPU) logicFlags(v byte) byte {
	c.setFlags(mLogic, nzsBits(v, 0))
	return v
}

// comFlags is logicFlags plus the C flag com always sets.
func (c *CPU) comFlags(v byte) byte {
	c.setFlags(mLogic|mC, nzsBits(v, 0)|mC)
	return v
}

// incFlags returns v+1; V is set on the 0x7F→0x80 overflow.
func (c *CPU) incFlags(v byte) byte {
	r := v + 1
	c.setFlags(mLogic, nzsBits(r, zeroBit(uint32(r^0x80))))
	return r
}

// decFlags returns v-1; V is set on the 0x80→0x7F overflow.
func (c *CPU) decFlags(v byte) byte {
	r := v - 1
	c.setFlags(mLogic, nzsBits(r, zeroBit(uint32(r^0x7F))))
	return r
}

// addFlags returns a+b+ci (ci is 0 or 1) and sets H, C, N, V, S and Z.
func (c *CPU) addFlags(a, b, ci byte) byte {
	r := a + b + ci
	carries := a&b | (a|b)&^r // carry out of every bit
	v := (a ^ r) & (b ^ r) >> 7
	c.setFlags(mArith, nzsBits(r, v)|carries>>3&1<<FlagH|carries>>7<<FlagC)
	return r
}

// subFlags returns a-b-ci (ci is 0 or 1) and sets H, C, N, V, S and Z.
// If keepZ is set, Z is only cleared (never set), which is the
// cpc/sbc/sbci behaviour that makes multi-byte compares work.
func (c *CPU) subFlags(a, b, ci byte, keepZ bool) byte {
	r := a - b - ci
	borrows := ^a&b | (^a|b)&r // borrow out of every bit
	v := (a ^ b) & (a ^ r) >> 7
	bits := nzsBits(r, v) | borrows>>3&1<<FlagH | borrows>>7<<FlagC
	if keepZ {
		bits &^= ^c.Data[AddrSREG] & mZ
	}
	c.setFlags(mArith, bits)
	return r
}

// shiftFlags sets the flags of asr, lsr and ror for result res of
// shifting v right: C is the bit shifted out, V = N xor C, S = N xor V.
func (c *CPU) shiftFlags(res, v byte) byte {
	cf, n := v&1, res>>7
	c.setFlags(mShift, zeroBit(uint32(res))<<FlagZ|n<<FlagN|(n^cf)<<FlagV|cf<<FlagS|cf<<FlagC)
	return res
}

// mulFlags sets C (bit 15 of the product) and Z for the mul family and
// returns the product.
func (c *CPU) mulFlags(p uint16) uint16 {
	c.setFlags(mC|mZ, zeroBit(uint32(p))<<FlagZ|byte(p>>15)<<FlagC)
	return p
}

// adiwFlags returns v+k and sets C, Z, N, V and S.
func (c *CPU) adiwFlags(v, k uint16) uint16 {
	sum := uint32(v) + uint32(k)
	r := uint16(sum)
	n, ov := byte(r>>15), byte(^v&r>>15)
	c.setFlags(mShift, zeroBit(uint32(r))<<FlagZ|n<<FlagN|ov<<FlagV|(n^ov)<<FlagS|byte(sum>>16)<<FlagC)
	return r
}

// sbiwFlags returns v-k and sets C, Z, N, V and S.
func (c *CPU) sbiwFlags(v, k uint16) uint16 {
	diff := uint32(v) - uint32(k)
	r := uint16(diff)
	n, ov := byte(r>>15), byte(v&^r>>15)
	c.setFlags(mShift, zeroBit(uint32(r))<<FlagZ|n<<FlagN|ov<<FlagV|(n^ov)<<FlagS|byte(diff>>31)<<FlagC)
	return r
}
