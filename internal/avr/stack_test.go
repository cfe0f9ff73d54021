package avr

// Internal test: the byte-at-a-time stack sequence below is the
// reference the fused PushPC/PopPC and translated PUSH/POP are held to,
// and it needs the core's unexported fault and PC plumbing.

import (
	"bytes"
	"fmt"
	"testing"
)

// refPushByte and refPopByte are the single-byte stack operations as
// the datasheet sequences them: every byte goes through WriteData or
// ReadData (so hooks and SREG writes fire), SP is written after every
// byte, and a push that leaves SP below SRAMBase faults.
func refPushByte(c *CPU, v byte) {
	sp := c.SP()
	c.WriteData(sp, v)
	c.SetSP(sp - 1)
	if sp-1 < SRAMBase {
		c.raise(FaultStackOverflow, 0)
	}
}

func refPopByte(c *CPU) byte {
	sp := c.SP() + 1
	c.SetSP(sp)
	return c.ReadData(sp)
}

// stackOp is one stack instruction at word 0, in a loop back to word
// 0, and a reference model of it built on refPushByte/refPopByte.
type stackOp struct {
	name  string
	image []byte
	cost  uint64       // cycles of one pass through the loop
	ref   func(c *CPU) // executes the instruction at PC 0 on c
}

var stackOps = []stackOp{
	{"push", []byte{0x0F, 0x93, 0xFE, 0xCF}, 4, // push r16 ; rjmp .-4
		func(c *CPU) {
			c.Cycles += 2
			refPushByte(c, c.Data[16])
			c.PC = 1
		}},
	{"pop", []byte{0x0F, 0x91, 0xFE, 0xCF}, 4, // pop r16 ; rjmp .-4
		func(c *CPU) {
			c.Cycles += 2
			c.Data[16] = refPopByte(c)
			c.PC = 1
		}},
	{"call", []byte{0x0E, 0x94, 0x00, 0x00}, 5, // call 0
		func(c *CPU) {
			c.Cycles += 5
			for _, b := range []byte{2, 0, 0} { // return address 2, low byte first
				refPushByte(c, b)
			}
			c.setPC(0)
		}},
	{"ret", []byte{0x08, 0x95}, 5, // ret to the primed address 0
		func(c *CPU) {
			c.Cycles += 5
			ext := uint32(refPopByte(c))
			hi := uint32(refPopByte(c))
			lo := uint32(refPopByte(c))
			c.setPC(ext<<16 | hi<<8 | lo)
		}},
}

// stackOracleSPs are the stack pointers each op is checked at: across
// the bottom of SRAM (where pushes fault and touch hooked extended
// I/O), across the top of the data space (where bytes fall outside it),
// at 0xFFFF (where a pop wraps into the register file), and just above
// the SP and SREG registers themselves.
func stackOracleSPs() []uint16 {
	var sps []uint16
	for sp := SRAMBase - 4; sp <= SRAMBase+6; sp++ {
		sps = append(sps, uint16(sp))
	}
	for sp := DataSpaceSize - 5; sp <= DataSpaceSize-1; sp++ {
		sps = append(sps, uint16(sp))
	}
	return append(sps, 0xFFFF, AddrSPH+1, AddrSREG+1)
}

// hookStackNeighbours installs logging hooks on the eight extended-I/O
// addresses below SRAMBase. The read hook alters the value it returns,
// so a pop through it is visible in the result.
func hookStackNeighbours(c *CPU, log *[]string) {
	for a := uint16(SRAMBase - 8); a < SRAMBase; a++ {
		a := a
		c.HookRead(a, func(cur byte) byte {
			*log = append(*log, fmt.Sprintf("read %03X", a))
			return cur ^ 0x3C
		})
		c.HookWrite(a, func(v byte) { *log = append(*log, fmt.Sprintf("write %03X=%02X", a, v)) })
	}
}

// seedStack fills the data space around both ends of the stack range
// and the registers a wrapped pop reads with a recognizable pattern.
func seedStack(c *CPU, sp uint16) {
	c.Reset()
	for i := 0; i < 32; i++ {
		c.Data[i] = byte(0x11 * i)
	}
	for i := SRAMBase - 16; i < SRAMBase+16; i++ {
		c.Data[i] = byte(i*7 + 1)
	}
	for i := DataSpaceSize - 8; i < DataSpaceSize; i++ {
		c.Data[i] = byte(i*5 + 3)
	}
	c.Data[16] = 0xA5
	c.SetSP(sp)
}

// The fused stack paths must be indistinguishable from the
// byte-at-a-time sequence at every stack boundary: same data space
// (SP included), same fault record and the same hook calls in the same
// order, on the interpreter and inside a translated block.
func TestStackOpsMatchByteAtATimeReference(t *testing.T) {
	for _, op := range stackOps {
		for _, blocks := range []bool{false, true} {
			engine := "interp"
			if blocks {
				engine = "blocks"
			}
			t.Run(op.name+"/"+engine, func(t *testing.T) {
				var log []string
				c := New()
				c.ForceInterpreter = !blocks
				if err := c.LoadFlash(op.image); err != nil {
					t.Fatal(err)
				}
				hookStackNeighbours(c, &log)
				if blocks {
					// Loop the op at a safe SP until word 0 is translated;
					// the return address 0 primes ret to loop back.
					for i := 0; i < 8; i++ {
						seedStack(c, DataSpaceSize-16)
						copy(c.Data[DataSpaceSize-15:], []byte{0, 0, 0})
						c.PC = 0
						if _, f := c.Run(op.cost); f != nil {
							t.Fatalf("warm-up: %v", f)
						}
					}
					if c.TranslationStats().Translated == 0 {
						t.Fatal("warm-up did not translate the op")
					}
				}
				for _, sp := range stackOracleSPs() {
					seedStack(c, sp)
					ref := New()
					var refLog []string
					hookStackNeighbours(ref, &refLog)
					copy(ref.Data, c.Data)
					op.ref(ref)

					log = log[:0]
					execs := c.TranslationStats().Execs
					c.PC = 0
					if blocks {
						c.Run(op.cost)
						if c.TranslationStats().Execs != execs+1 {
							t.Fatalf("sp %04X: the op did not run as a translated block", sp)
						}
					} else {
						c.Step()
					}

					if !bytes.Equal(c.Data, ref.Data) {
						for i := range c.Data {
							if c.Data[i] != ref.Data[i] {
								t.Fatalf("sp %04X: data[%04X] = %02X, reference %02X (SP %04X, reference %04X)",
									sp, i, c.Data[i], ref.Data[i], c.SP(), ref.SP())
							}
						}
					}
					if got, want := faultKey(c.Fault()), faultKey(ref.Fault()); got != want {
						t.Fatalf("sp %04X: fault %s, reference %s", sp, got, want)
					}
					if got, want := fmt.Sprint(log), fmt.Sprint(refLog); got != want {
						t.Fatalf("sp %04X: hook calls %s, reference %s", sp, got, want)
					}
				}
			})
		}
	}
}

func faultKey(f *Fault) string {
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("%v at pc %d, cycle %d", f.Kind, f.PC, f.Cycle)
}
