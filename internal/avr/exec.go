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
		c.SetReg(d, c.addFlags(c.Reg(d), c.Reg(r), false))
	case OpADC:
		c.SetReg(d, c.addFlags(c.Reg(d), c.Reg(r), c.Flag(FlagC)))
	case OpSUB:
		c.SetReg(d, c.subFlags(c.Reg(d), c.Reg(r), false, false))
	case OpSBC:
		c.SetReg(d, c.subFlags(c.Reg(d), c.Reg(r), c.Flag(FlagC), true))
	case OpSUBI:
		c.SetReg(d, c.subFlags(c.Reg(d), byte(in.K), false, false))
	case OpSBCI:
		c.SetReg(d, c.subFlags(c.Reg(d), byte(in.K), c.Flag(FlagC), true))
	case OpCP:
		c.subFlags(c.Reg(d), c.Reg(r), false, false)
	case OpCPC:
		c.subFlags(c.Reg(d), c.Reg(r), c.Flag(FlagC), true)
	case OpCPI:
		c.subFlags(c.Reg(d), byte(in.K), false, false)

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
		v := ^c.Reg(d)
		c.logicFlags(v)
		c.SetFlag(FlagC, true)
		c.SetReg(d, v)
	case OpNEG:
		c.SetReg(d, c.subFlags(0, c.Reg(d), false, false))
	case OpSWAP:
		v := c.Reg(d)
		c.SetReg(d, v<<4|v>>4)
	case OpINC:
		v := c.Reg(d) + 1
		c.SetFlag(FlagV, v == 0x80)
		c.nzs(v)
		c.SetReg(d, v)
	case OpDEC:
		v := c.Reg(d) - 1
		c.SetFlag(FlagV, v == 0x7F)
		c.nzs(v)
		c.SetReg(d, v)
	case OpASR:
		v := c.Reg(d)
		res := v>>1 | v&0x80
		c.shiftFlags(res, v&1 != 0)
		c.SetReg(d, res)
	case OpLSR:
		v := c.Reg(d)
		res := v >> 1
		c.shiftFlags(res, v&1 != 0)
		c.SetReg(d, res)
	case OpROR:
		v := c.Reg(d)
		res := v >> 1
		if c.Flag(FlagC) {
			res |= 0x80
		}
		c.shiftFlags(res, v&1 != 0)
		c.SetReg(d, res)

	case OpMUL:
		r := uint16(c.Reg(d)) * uint16(c.Reg(r))
		c.SetRegPair(0, r)
		c.SetFlag(FlagC, r&0x8000 != 0)
		c.SetFlag(FlagZ, r == 0)
	case OpMULS:
		r := int16(int8(c.Reg(d))) * int16(int8(c.Reg(r)))
		c.SetRegPair(0, uint16(r))
		c.SetFlag(FlagC, uint16(r)&0x8000 != 0)
		c.SetFlag(FlagZ, r == 0)
	case OpMULSU, OpFMUL:
		r := int16(int8(c.Reg(d))) * int16(c.Reg(r))
		if in.Op == OpFMUL {
			r <<= 1
		}
		c.SetRegPair(0, uint16(r))
		c.SetFlag(FlagC, uint16(r)&0x8000 != 0)
		c.SetFlag(FlagZ, r == 0)

	case OpADIW:
		v := c.RegPair(d)
		res := v + uint16(in.K)
		c.SetRegPair(d, res)
		c.SetFlag(FlagC, res < v)
		c.SetFlag(FlagZ, res == 0)
		c.SetFlag(FlagN, res&0x8000 != 0)
		c.SetFlag(FlagV, v&0x8000 == 0 && res&0x8000 != 0)
		c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))
	case OpSBIW:
		v := c.RegPair(d)
		res := v - uint16(in.K)
		c.SetRegPair(d, res)
		c.SetFlag(FlagC, res > v)
		c.SetFlag(FlagZ, res == 0)
		c.SetFlag(FlagN, res&0x8000 != 0)
		c.SetFlag(FlagV, v&0x8000 != 0 && res&0x8000 == 0)
		c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))

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

// nzs updates N, Z and S from result v (V must already be set).
func (c *CPU) nzs(v byte) {
	c.SetFlag(FlagN, v&0x80 != 0)
	c.SetFlag(FlagZ, v == 0)
	c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))
}

func (c *CPU) addFlags(a, b byte, carry bool) byte {
	ci := byte(0)
	if carry {
		ci = 1
	}
	r := a + b + ci
	c.SetFlag(FlagH, (a&0xF+b&0xF+ci)&0x10 != 0)
	c.SetFlag(FlagC, int(a)+int(b)+int(ci) > 0xFF)
	c.SetFlag(FlagV, (a^r)&(b^r)&0x80 != 0)
	c.nzs(r)
	return r
}

// subFlags computes a-b-carry and updates flags. If keepZ is set, Z is
// only cleared (never set), which is the cpc/sbc/sbci behaviour that
// makes multi-byte compares work.
func (c *CPU) subFlags(a, b byte, carry, keepZ bool) byte {
	ci := byte(0)
	if carry {
		ci = 1
	}
	r := a - b - ci
	c.SetFlag(FlagH, (b&0xF+ci) > a&0xF)
	c.SetFlag(FlagC, int(b)+int(ci) > int(a))
	c.SetFlag(FlagV, (a^b)&(a^r)&0x80 != 0)
	prevZ := c.Flag(FlagZ)
	c.nzs(r)
	if keepZ && r == 0 {
		c.SetFlag(FlagZ, prevZ)
		c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))
	}
	return r
}

func (c *CPU) logicFlags(v byte) byte {
	c.SetFlag(FlagV, false)
	c.nzs(v)
	return v
}

func (c *CPU) shiftFlags(res byte, carryOut bool) {
	c.SetFlag(FlagC, carryOut)
	c.SetFlag(FlagZ, res == 0)
	c.SetFlag(FlagN, res&0x80 != 0)
	c.SetFlag(FlagV, c.Flag(FlagN) != c.Flag(FlagC))
	c.SetFlag(FlagS, c.Flag(FlagN) != c.Flag(FlagV))
}
