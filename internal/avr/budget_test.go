package avr_test

import (
	"runtime"
	"testing"
	"unsafe"

	"mavr/internal/asm"
	"mavr/internal/avr"
	"mavr/internal/firmware"
)

// The decode tables hold one Instr per word of every page a core
// touches; the packed layout is what keeps them small.
func TestInstrFitsSixteenBytes(t *testing.T) {
	if n := unsafe.Sizeof(avr.Instr{}); n > 16 {
		t.Errorf("unsafe.Sizeof(avr.Instr{}) = %d, want <= 16", n)
	}
}

// perCPUBudget bounds what one core may allocate to boot an image and
// fly one simulated second: flash, data space, I/O hook tables, the
// decode and block pages it touches, and its translated blocks.
const perCPUBudget = 2 << 20

// A fresh core must pay only for the flash it executes. Every board
// boot, re-randomization and attacker simulation brings one up, so
// tables sized for the whole 256 KiB flash would dominate short runs.
func TestPerCPUMemoryBudget(t *testing.T) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)

	c := avr.New()
	c.HookRead(firmware.AddrUCSR0A, func(byte) byte { return 1 << firmware.BitUDRE })
	c.HookWrite(firmware.AddrUDR0, func(byte) {})
	if err := c.LoadFlash(img.Flash); err != nil {
		t.Fatal(err)
	}
	const tick = 16_000 // 1 kHz system tick at 16 MHz
	for cyc := 0; cyc < 16_000_000; cyc += tick {
		c.RaiseInterrupt(avr.VectorTimer0Ovf)
		if _, f := c.Run(tick); f != nil {
			t.Fatalf("fault after %d cycles: %v", cyc, f)
		}
	}

	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	if st := c.TranslationStats(); !c.ForceInterpreter && st.Execs == 0 {
		t.Fatalf("block engine never engaged: %+v", st)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("one simulated second allocated %d KiB", alloc>>10)
	if alloc > perCPUBudget {
		t.Errorf("one core allocated %d KiB to boot and fly one simulated second, budget %d KiB",
			alloc>>10, perCPUBudget>>10)
	}
}

// straddleProgram calls sub until it is hot. sub starts with a
// two-word lds whose opcode is the last word of flash page 0 and whose
// operand (the data address) is the first word of page 1. The spm at
// word 0x300 is the target the tests drive page writes through.
const straddleProgram = hotLoopHeader + `
	sleep

.org 0x7F
sub:
	lds r20, 0x0400 ; opcode word 0x7F, operand word 0x80
	ret

.org 0x300
	spm
`

// spmWritePage rewrites the flash page at byte address page through the
// core's own SPM channel (buffer fill, page erase, page write), the way
// the bootloader reprograms the application.
func spmWritePage(t *testing.T, c *avr.CPU, page uint32, content []byte) {
	t.Helper()
	spm := func(mode byte, addr uint32) {
		c.SetRegPair(avr.RegZL, uint16(addr))
		c.Data[avr.AddrSPMCSR] = mode
		c.PC = 0x300
		if err := c.Step(); err != nil {
			t.Fatalf("spm mode %#x at %#x: %v", mode, addr, err)
		}
	}
	for off := uint32(0); off < avr.SPMPageSize; off += 2 {
		c.SetReg(0, content[off])
		c.SetReg(1, content[off+1])
		spm(1<<avr.BitSPMEN, page+off)
	}
	spm(1<<avr.BitSPMEN|1<<avr.BitPGERS, page)
	spm(1<<avr.BitSPMEN|1<<avr.BitPGWRT, page)
}

// Rewriting only the operand word of a two-word instruction that
// straddles a page boundary must re-decode it, although its opcode word
// sits on the previous page. Both flash channels are covered —
// InvalidateFlash on the operand word alone and an SPM write of the
// next page — on both engines.
func TestPageBoundaryStraddleInvalidation(t *testing.T) {
	img, err := asm.Assemble(straddleProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	rewrites := map[string]func(t *testing.T, c *avr.CPU){
		"invalidate-operand-word": func(t *testing.T, c *avr.CPU) {
			c.Flash[0x100] = 0x01 // lds target 0x0400 -> 0x0401
			c.InvalidateFlash(0x100, 2)
		},
		"spm-next-page": func(t *testing.T, c *avr.CPU) {
			page := append([]byte(nil), c.Flash[0x100:0x200]...)
			page[0] = 0x01
			c.Reset()
			spmWritePage(t, c, 0x100, page)
		},
	}
	for name, rewrite := range rewrites {
		for _, interp := range []bool{false, true} {
			engine := "blocks"
			if interp {
				engine = "interp"
			}
			t.Run(name+"/"+engine, func(t *testing.T) {
				c := avr.New()
				c.ForceInterpreter = interp
				if err := c.LoadFlash(img); err != nil {
					t.Fatal(err)
				}
				if c.Flash[0xFE] != 0x40 || c.Flash[0x100] != 0x00 || c.Flash[0x101] != 0x04 {
					t.Fatalf("unexpected layout: % X", c.Flash[0xFC:0x104])
				}
				run := func(want byte) {
					t.Helper()
					c.Reset()
					c.Data[0x0400], c.Data[0x0401] = 0xAA, 0xBB
					if _, f := c.Run(100_000); f != nil {
						t.Fatalf("fault: %v", f)
					}
					if !c.Sleeping {
						t.Fatal("program did not finish")
					}
					if got := c.Reg(20); got != want {
						t.Fatalf("r20 = %#02x, want %#02x", got, want)
					}
				}
				run(0xAA)
				before := c.TranslationStats()
				if !interp && before.Execs == 0 {
					t.Fatalf("block engine never engaged: %+v", before)
				}
				rewrite(t, c)
				if c.Flash[0x100] != 0x01 {
					t.Fatalf("rewrite did not land: % X", c.Flash[0xFC:0x104])
				}
				run(0xBB) // a stale decode would still load 0x0400
				if after := c.TranslationStats(); !interp && after.Invalidated == before.Invalidated {
					t.Errorf("the straddling translation was not invalidated: %+v", after)
				}
			})
		}
	}
}
