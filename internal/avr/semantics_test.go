package avr_test

import (
	"fmt"
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

// Exhaustive semantic tests: every 8-bit ALU operation is executed on
// the simulator for all 65536 input pairs and compared against an
// independent bit-level reference model of the AVR datasheet flag
// equations.
//
// Each sweep runs six times: on the interpreter (Step) and through a
// translated block, each starting from SREG 0x00, 0xFF and 0xAA. The
// non-zero seeds catch an SREG update that clobbers a bit the
// instruction leaves alone (I and T always; H, C or V where the
// datasheet says so): every executed case also checks that those bits
// come out as they went in. The block run catches a translated closure
// that disagrees with the datasheet even where FuzzBlockExec cannot:
// both engines share the flag helpers, so a differential between them
// would not see a bug in those.

// refFlags computes the SREG flags for result r of op(a, b) using the
// datasheet bit equations (written independently of exec.go).
type refFlags struct{ c, z, n, v, s, h bool }

func refAdd(a, b byte, carryIn bool) (byte, refFlags) {
	ci := byte(0)
	if carryIn {
		ci = 1
	}
	r := a + b + ci
	var f refFlags
	a7, b7, r7 := a>>7&1, b>>7&1, r>>7&1
	a3, b3, r3 := a>>3&1, b>>3&1, r>>3&1
	f.c = a7&b7|b7&^r7&1|^r7&a7&1 == 1
	f.h = a3&b3|b3&^r3&1|^r3&a3&1 == 1
	f.v = a7&b7&^r7&1|^a7&^b7&r7&1 == 1
	f.n = r7 == 1
	f.z = r == 0
	f.s = f.n != f.v
	return r, f
}

func refSub(a, b byte, carryIn bool) (byte, refFlags) {
	ci := byte(0)
	if carryIn {
		ci = 1
	}
	r := a - b - ci
	var f refFlags
	a7, b7, r7 := a>>7&1, b>>7&1, r>>7&1
	a3, b3, r3 := a>>3&1, b>>3&1, r>>3&1
	f.c = ^a7&b7|b7&r7|r7&^a7&1 == 1
	f.h = ^a3&b3|b3&r3|r3&^a3&1 == 1
	f.v = a7&^b7&^r7&1|^a7&b7&r7&1 == 1
	f.n = r7 == 1
	f.z = r == 0
	f.s = f.n != f.v
	return r, f
}

// refLogic is the datasheet's flag result of and/or/eor/com: V cleared,
// N and Z from the result, S = N.
func refLogic(r byte) refFlags {
	n := r&0x80 != 0
	return refFlags{z: r == 0, n: n, s: n}
}

// refShift is the flag result of asr/lsr/ror: C is the bit shifted
// out, V = N xor C, S = N xor V.
func refShift(r byte, carryOut bool) refFlags {
	n := r&0x80 != 0
	v := n != carryOut
	return refFlags{c: carryOut, z: r == 0, n: n, v: v, s: n != v}
}

// SREG bits each instruction class writes; every other bit must come
// out of the instruction as it went in.
const (
	wArith = 1<<avr.FlagH | 1<<avr.FlagS | 1<<avr.FlagV | 1<<avr.FlagN | 1<<avr.FlagZ | 1<<avr.FlagC
	wLogic = 1<<avr.FlagS | 1<<avr.FlagV | 1<<avr.FlagN | 1<<avr.FlagZ // and/or/eor, inc/dec
	wShift = wLogic | 1<<avr.FlagC                                     // asr/lsr/ror, com, adiw/sbiw
	wMul   = 1<<avr.FlagZ | 1<<avr.FlagC
)

// sregSeeds are the initial SREG values every sweep starts from.
var sregSeeds = []byte{0x00, 0xFF, 0xAA}

// aluRig executes a single fixed instruction repeatedly with varying
// inputs, reusing one CPU (a fresh CPU per case would dominate the
// exhaustive sweeps). The flash holds the instruction and an rjmp back
// to it; on the block engine that loop is run hot first, so every case
// then executes as one translated block.
type aluRig struct {
	c      *avr.CPU
	blocks bool   // execute through a translated block instead of Step
	sreg   byte   // initial SREG of every case
	keep   byte   // SREG bits the instruction must leave alone
	cost   uint64 // cycles of one pass: the instruction plus the rjmp
	cases  uint64
	warm   avr.BlockStats // engine counters after the warm-up
}

func newALURig(t *testing.T, word uint16, blocks bool, sreg, written byte) *aluRig {
	t.Helper()
	c := avr.New()
	c.ForceInterpreter = !blocks
	img := []byte{byte(word), byte(word >> 8), 0xFE, 0xCF /* rjmp .-4 */}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	r := &aluRig{c: c, blocks: blocks, sreg: sreg, keep: ^written}
	if blocks {
		// Measure one interpreted pass, then loop until the entry is
		// translated.
		for i := 0; i < 2; i++ {
			if err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
		r.cost = c.Cycles
		if _, f := c.Run(16 * r.cost); f != nil {
			t.Fatal(f)
		}
		r.warm = c.TranslationStats()
	}
	return r
}

// exec runs the instruction once: it seeds SREG, lets setup place the
// operands, executes, and fails unless the bits outside the
// instruction's write mask are unchanged.
func (r *aluRig) exec(t *testing.T, setup func(c *avr.CPU)) {
	t.Helper()
	c := r.c
	c.SetSREG(r.sreg)
	setup(c)
	before := c.SREG()
	c.PC = 0
	if r.blocks {
		if _, f := c.Run(r.cost); f != nil {
			t.Fatal(f)
		}
	} else if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	r.cases++
	if diff := (c.SREG() ^ before) & r.keep; diff != 0 {
		t.Fatalf("SREG %08b -> %08b changed bits %08b the instruction must leave alone", before, c.SREG(), diff)
	}
}

// run executes with r16 = a, r17 = b and the given carry, returning r16
// and the arithmetic flags.
func (r *aluRig) run(t *testing.T, a, b byte, carryIn bool) (byte, refFlags) {
	t.Helper()
	r.exec(t, func(c *avr.CPU) {
		c.SetReg(16, a)
		c.SetReg(17, b)
		c.SetFlag(avr.FlagC, carryIn)
	})
	return r.c.Reg(16), r.flags()
}

func (r *aluRig) flags() refFlags {
	c := r.c
	return refFlags{
		c: c.Flag(avr.FlagC),
		z: c.Flag(avr.FlagZ),
		n: c.Flag(avr.FlagN),
		v: c.Flag(avr.FlagV),
		s: c.Flag(avr.FlagS),
		h: c.Flag(avr.FlagH),
	}
}

// sweep runs body on a fresh rig for every engine and initial SREG. On
// the block engine it also requires that every case ran as exactly one
// translated block, with no instruction interpreted.
func sweep(t *testing.T, word uint16, written byte, body func(t *testing.T, r *aluRig)) {
	t.Helper()
	for _, blocks := range []bool{false, true} {
		engine := "interp"
		if blocks {
			engine = "blocks"
		}
		for _, sreg := range sregSeeds {
			t.Run(fmt.Sprintf("%s/sreg=%02X", engine, sreg), func(t *testing.T) {
				r := newALURig(t, word, blocks, sreg, written)
				body(t, r)
				if !blocks {
					return
				}
				st := r.c.TranslationStats()
				if st.Execs-r.warm.Execs != r.cases || st.InterpSteps != r.warm.InterpSteps {
					t.Errorf("%d cases: %d block executions and %d interpreted steps after warm-up, want %d and 0",
						r.cases, st.Execs-r.warm.Execs, st.InterpSteps-r.warm.InterpSteps, r.cases)
				}
			})
		}
	}
}

func flagsEqual(got, want refFlags, checkH bool) bool {
	if got.c != want.c || got.z != want.z || got.n != want.n || got.v != want.v || got.s != want.s {
		return false
	}
	return !checkH || got.h == want.h
}

func TestADDExhaustive(t *testing.T) {
	sweep(t, asm.ADD(16, 17), wArith, func(t *testing.T, rig *aluRig) {
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				got, gf := rig.run(t, byte(a), byte(b), false)
				want, wf := refAdd(byte(a), byte(b), false)
				if got != want || !flagsEqual(gf, wf, true) {
					t.Fatalf("add %d+%d: got r=%d %+v, want r=%d %+v", a, b, got, gf, want, wf)
				}
			}
		}
	})
}

func TestADCExhaustiveWithCarry(t *testing.T) {
	sweep(t, asm.ADC(16, 17), wArith, func(t *testing.T, rig *aluRig) {
		for a := 0; a < 256; a += 3 {
			for b := 0; b < 256; b++ {
				for _, ci := range []bool{false, true} {
					got, gf := rig.run(t, byte(a), byte(b), ci)
					want, wf := refAdd(byte(a), byte(b), ci)
					if got != want || !flagsEqual(gf, wf, true) {
						t.Fatalf("adc %d+%d+%v: got r=%d %+v, want r=%d %+v", a, b, ci, got, gf, want, wf)
					}
				}
			}
		}
	})
}

func TestSUBExhaustive(t *testing.T) {
	sweep(t, asm.SUB(16, 17), wArith, func(t *testing.T, rig *aluRig) {
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				got, gf := rig.run(t, byte(a), byte(b), false)
				want, wf := refSub(byte(a), byte(b), false)
				if got != want || !flagsEqual(gf, wf, true) {
					t.Fatalf("sub %d-%d: got r=%d %+v, want r=%d %+v", a, b, got, gf, want, wf)
				}
			}
		}
	})
}

func TestSBCExhaustiveZPropagation(t *testing.T) {
	// sbc result flags; Z is sticky (only cleared, never set) — the
	// multi-byte comparison behaviour. Both incoming Z values are swept.
	sweep(t, asm.SBC(16, 17), wArith, func(t *testing.T, rig *aluRig) {
		for a := 0; a < 256; a += 5 {
			for b := 0; b < 256; b++ {
				for _, ci := range []bool{false, true} {
					for _, zi := range []bool{false, true} {
						rig.exec(t, func(c *avr.CPU) {
							c.SetReg(16, byte(a))
							c.SetReg(17, byte(b))
							c.SetFlag(avr.FlagC, ci)
							c.SetFlag(avr.FlagZ, zi) // did the low byte compare equal?
						})
						want, wf := refSub(byte(a), byte(b), ci)
						wf.z = wf.z && zi
						if got, gf := rig.c.Reg(16), rig.flags(); got != want || !flagsEqual(gf, wf, true) {
							t.Fatalf("sbc %d-%d-%v (Z in %v): got r=%d %+v, want r=%d %+v", a, b, ci, zi, got, gf, want, wf)
						}
					}
				}
			}
		}
	})
}

func TestSBCClearsZOnNonzeroResult(t *testing.T) {
	word := asm.SBC(16, 17)
	c := avr.New()
	img := []byte{byte(word), byte(word >> 8), 0x88, 0x95}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.SetReg(16, 5)
	c.SetReg(17, 1)
	c.SetFlag(avr.FlagZ, true)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Flag(avr.FlagZ) {
		t.Error("Z stayed set on nonzero sbc result")
	}
}

func TestLogicOpsExhaustive(t *testing.T) {
	ops := []struct {
		name string
		word uint16
		ref  func(a, b byte) byte
	}{
		{"and", asm.AND(16, 17), func(a, b byte) byte { return a & b }},
		{"or", asm.OR(16, 17), func(a, b byte) byte { return a | b }},
		{"eor", asm.EOR(16, 17), func(a, b byte) byte { return a ^ b }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			sweep(t, op.word, wLogic, func(t *testing.T, rig *aluRig) {
				for a := 0; a < 256; a += 7 {
					for b := 0; b < 256; b++ {
						got, gf := rig.run(t, byte(a), byte(b), false)
						want := op.ref(byte(a), byte(b))
						if got != want || !flagsEqual(gf, refLogic(want), false) {
							t.Fatalf("%s %d,%d: got r=%d %+v, want r=%d %+v", op.name, a, b, got, gf, want, refLogic(want))
						}
					}
				}
			})
		})
	}
}

func TestCPMatchesSUBWithoutWriteback(t *testing.T) {
	sweep(t, asm.CP(16, 17), wArith, func(t *testing.T, rig *aluRig) {
		for a := 0; a < 256; a += 11 {
			for b := 0; b < 256; b++ {
				got, gf := rig.run(t, byte(a), byte(b), false)
				if got != byte(a) {
					t.Fatalf("cp modified rd: %d", got)
				}
				_, wf := refSub(byte(a), byte(b), false)
				if !flagsEqual(gf, wf, true) {
					t.Fatalf("cp %d,%d: flags %+v, want %+v", a, b, gf, wf)
				}
			}
		}
	})
}

func TestINCDECExhaustive(t *testing.T) {
	ops := []struct {
		name string
		word uint16
		ref  func(a byte) (byte, refFlags)
	}{
		{"inc", asm.INC(16), func(a byte) (byte, refFlags) {
			f := refLogic(a + 1)
			f.v = a == 0x7F
			f.s = f.n != f.v
			return a + 1, f
		}},
		{"dec", asm.DEC(16), func(a byte) (byte, refFlags) {
			f := refLogic(a - 1)
			f.v = a == 0x80
			f.s = f.n != f.v
			return a - 1, f
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			sweep(t, op.word, wLogic, func(t *testing.T, rig *aluRig) {
				for a := 0; a < 256; a++ {
					got, gf := rig.run(t, byte(a), 0, false)
					want, wf := op.ref(byte(a))
					if got != want || !flagsEqual(gf, wf, false) {
						t.Fatalf("%s %d: got r=%d %+v, want r=%d %+v", op.name, a, got, gf, want, wf)
					}
				}
			})
		})
	}
}

func TestNEGCOMExhaustive(t *testing.T) {
	t.Run("neg", func(t *testing.T) {
		sweep(t, asm.NEG(16), wArith, func(t *testing.T, rig *aluRig) {
			for a := 0; a < 256; a++ {
				got, gf := rig.run(t, byte(a), 0, false)
				want, wf := refSub(0, byte(a), false)
				if got != want || !flagsEqual(gf, wf, true) {
					t.Fatalf("neg %d: got r=%d %+v, want r=%d %+v", a, got, gf, want, wf)
				}
			}
		})
	})
	t.Run("com", func(t *testing.T) {
		sweep(t, asm.COM(16), wShift, func(t *testing.T, rig *aluRig) {
			for a := 0; a < 256; a++ {
				got, gf := rig.run(t, byte(a), 0, false)
				wf := refLogic(^byte(a))
				wf.c = true // com always sets C
				if got != ^byte(a) || !flagsEqual(gf, wf, false) {
					t.Fatalf("com %d: got r=%d %+v, want r=%d %+v", a, got, gf, ^byte(a), wf)
				}
			}
		})
	})
}

func TestShiftsExhaustive(t *testing.T) {
	ops := []struct {
		name string
		word uint16
		ref  func(a byte, ci bool) byte
	}{
		{"lsr", asm.LSR(16), func(a byte, _ bool) byte { return a >> 1 }},
		{"asr", asm.ASR(16), func(a byte, _ bool) byte { return byte(int8(a) >> 1) }},
		{"ror", asm.ROR(16), func(a byte, ci bool) byte {
			if ci {
				return a>>1 | 0x80
			}
			return a >> 1
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			sweep(t, op.word, wShift, func(t *testing.T, rig *aluRig) {
				for a := 0; a < 256; a++ {
					for _, ci := range []bool{false, true} {
						got, gf := rig.run(t, byte(a), 0, ci)
						want := op.ref(byte(a), ci)
						wf := refShift(want, a&1 == 1)
						if got != want || !flagsEqual(gf, wf, false) {
							t.Fatalf("%s %d (ci=%v): got r=%d %+v, want r=%d %+v", op.name, a, ci, got, gf, want, wf)
						}
					}
				}
			})
		})
	}
}

// The multiplies leave the product in r1:r0 and set C from its bit 15
// and Z from the whole product.
func TestMULExhaustive(t *testing.T) {
	ops := []struct {
		name string
		word uint16
		ref  func(a, b byte) uint16
	}{
		{"mul", asm.MUL(16, 17), func(a, b byte) uint16 { return uint16(a) * uint16(b) }},
		{"muls", asm.MULS(16, 17), func(a, b byte) uint16 { return uint16(int16(int8(a)) * int16(int8(b))) }},
		{"mulsu", asm.MULSU(16, 17), func(a, b byte) uint16 { return uint16(int16(int8(a)) * int16(b)) }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			sweep(t, op.word, wMul, func(t *testing.T, rig *aluRig) {
				for a := 0; a < 256; a += 3 {
					for b := 0; b < 256; b += 3 {
						rig.run(t, byte(a), byte(b), false)
						want := op.ref(byte(a), byte(b))
						c := rig.c
						if got := c.RegPair(0); got != want {
							t.Fatalf("%s %d*%d = %d, want %d", op.name, a, b, got, want)
						}
						if c.Flag(avr.FlagC) != (want&0x8000 != 0) || c.Flag(avr.FlagZ) != (want == 0) {
							t.Fatalf("%s %d*%d flags wrong: SREG %08b", op.name, a, b, c.SREG())
						}
					}
				}
			})
		})
	}
}

func TestSWAPExhaustive(t *testing.T) {
	sweep(t, asm.SWAP(16), 0, func(t *testing.T, rig *aluRig) {
		for a := 0; a < 256; a++ {
			got, _ := rig.run(t, byte(a), 0, false)
			if got != byte(a)<<4|byte(a)>>4 {
				t.Fatalf("swap %d = %d", a, got)
			}
		}
	})
}

// 16-bit add/sub-immediate semantics across the carry boundary, with
// the datasheet's flag equations over the high bit of the operand
// (Rdh7) and of the result (R15).
func TestADIWSBIWExhaustive(t *testing.T) {
	for k := 0; k < 64; k += 9 {
		for _, sub := range []bool{false, true} {
			name, word := fmt.Sprintf("adiw_%d", k), asm.ADIW(24, k)
			if sub {
				name, word = fmt.Sprintf("sbiw_%d", k), asm.SBIW(24, k)
			}
			t.Run(name, func(t *testing.T) {
				sweep(t, word, wShift, func(t *testing.T, rig *aluRig) {
					for hi := 0; hi < 256; hi += 17 {
						for lo := 0; lo < 256; lo += 5 {
							v := uint16(hi)<<8 | uint16(lo)
							rig.exec(t, func(c *avr.CPU) { c.SetRegPair(24, v) })
							want := v + uint16(k)
							if sub {
								want = v - uint16(k)
							}
							rdh7, r15 := v&0x8000 != 0, want&0x8000 != 0
							wf := refFlags{c: !r15 && rdh7, v: !rdh7 && r15, n: r15, z: want == 0}
							if sub {
								wf.c, wf.v = r15 && !rdh7, rdh7 && !r15
							}
							wf.s = wf.n != wf.v
							if got, gf := rig.c.RegPair(24), rig.flags(); got != want || !flagsEqual(gf, wf, false) {
								t.Fatalf("%s on %04X: got %04X %+v, want %04X %+v", name, v, got, gf, want, wf)
							}
						}
					}
				})
			})
		}
	}
}

func TestMULSAndMULSU(t *testing.T) {
	cases := []struct {
		word uint16
		a, b byte
		want uint16
	}{
		{asm.MULS(16, 17), 0xFF, 0x02, 0xFFFE},  // -1 * 2 = -2
		{asm.MULS(16, 17), 0x80, 0x80, 0x4000},  // -128 * -128
		{asm.MULSU(16, 17), 0xFF, 0xFF, 0xFF01}, // -1 * 255 = -255
		{asm.MULSU(16, 17), 0x02, 0xFF, 0x01FE}, // 2 * 255
	}
	for i, tc := range cases {
		c := avr.New()
		img := []byte{byte(tc.word), byte(tc.word >> 8), 0x88, 0x95}
		if err := c.LoadFlash(img); err != nil {
			t.Fatal(err)
		}
		c.SetReg(16, tc.a)
		c.SetReg(17, tc.b)
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}
		if got := c.RegPair(0); got != tc.want {
			t.Errorf("case %d: r1:r0 = 0x%04X, want 0x%04X", i, got, tc.want)
		}
	}
}

func TestSTSThenLDSAtExtendedIO(t *testing.T) {
	// Extended I/O (0x60..0x1FF) is reachable only via lds/sts.
	c := avr.New()
	// Build a two-word program manually: sts 0xC4, r16 ; nop
	w := asm.STS(0x00C4, 16)
	img := []byte{byte(w[0]), byte(w[0] >> 8), byte(w[1]), byte(w[1] >> 8), 0, 0}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.PC = 0
	c.SetReg(16, 0x9D)
	if err := c.Step(); err != nil {
		t.Fatal(err)
	}
	if c.Data[0x00C4] != 0x9D {
		t.Errorf("extended IO write failed: 0x%02X", c.Data[0x00C4])
	}
}

func TestStackOverflowFault(t *testing.T) {
	c := avr.New()
	img := []byte{byte(asm.PUSH(0)), byte(asm.PUSH(0) >> 8), 0, 0}
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	c.SetSP(avr.SRAMBase) // one byte of stack left
	if err := c.Step(); err == nil {
		t.Fatal("push into the register file did not fault")
	}
	if c.Fault().Kind != avr.FaultStackOverflow {
		t.Errorf("fault = %v, want stack overflow", c.Fault().Kind)
	}
}

func TestFaultErrorString(t *testing.T) {
	c := avr.New()
	if err := c.LoadFlash([]byte{0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	err := c.Step()
	if err == nil || err.Error() == "" {
		t.Fatal("fault has no message")
	}
	for _, k := range []avr.FaultKind{
		avr.FaultInvalidOpcode, avr.FaultPCOutOfRange, avr.FaultStackOverflow,
		avr.FaultBreak, avr.FaultCycleBudget, avr.FaultKind(99),
	} {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
}

func TestLoadFlashTooLarge(t *testing.T) {
	c := avr.New()
	if err := c.LoadFlash(make([]byte, avr.FlashSize+2)); err == nil {
		t.Error("oversized image accepted")
	}
}
