package avr

// Internal test: the decode cache's fetch path is unexported, and the
// whole point is proving it indistinguishable from uncached decoding.

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecode feeds arbitrary flash contents to the decoder. Invariants:
// Decode never panics, InstrWords always agrees with Decode on the
// instruction length, and the CPU's predecoded cache returns exactly
// what uncached decoding returns — before and after a flash rewrite
// with invalidation, the scenario MAVR's re-randomization produces, and
// after a one-word rewrite at the first word of a decode page.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x0C, 0x94, 0x34, 0x12}) // jmp
	f.Add([]byte{0x0E, 0x94, 0x00, 0x00}) // call
	f.Add([]byte{0x08, 0x95, 0x18, 0x95}) // ret, reti
	f.Add([]byte{0xE8, 0x95, 0x09, 0x94}) // spm, ijmp
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // erased flash
	f.Add([]byte{0x0C, 0x94})             // two-word instr cut short
	f.Add(make([]byte, 512))              // a page of nops
	f.Add(straddleImage())                // lds straddling the page 0/1 boundary

	cpu := New()
	f.Fuzz(func(t *testing.T, image []byte) {
		if len(image) > 4096 {
			image = image[:4096]
		}
		if err := cpu.LoadFlash(image); err != nil {
			t.Fatal(err)
		}
		words := uint32((len(image) + 1) / 2)
		for pc := uint32(0); pc <= words && pc+1 < FlashWords; pc++ {
			plain := Decode(wordAt(cpu.Flash, pc), wordAt(cpu.Flash, pc+1))
			if got := InstrWords(wordAt(cpu.Flash, pc)); got != int(plain.Words) {
				t.Fatalf("pc %d: InstrWords = %d, Decode.Words = %d", pc, got, plain.Words)
			}
			if streamed := DecodeAt(cpu.Flash, pc); streamed != plain {
				t.Fatalf("pc %d: DecodeAt = %+v, Decode = %+v", pc, streamed, plain)
			}
			if cached := cpu.fetch(pc); cached != plain {
				t.Fatalf("pc %d: cached fetch = %+v, uncached = %+v", pc, cached, plain)
			}
			// A second fetch is a guaranteed cache hit; it must not decay.
			if hit := cpu.fetch(pc); hit != plain {
				t.Fatalf("pc %d: cache hit = %+v, uncached = %+v", pc, hit, plain)
			}
		}

		// Rewrite the image in place (byte-flip the whole extent), as a
		// randomization pass would, and invalidate: the cache must track.
		for i := range image {
			cpu.Flash[i] ^= 0xA5
		}
		cpu.InvalidateFlash(0, uint32(len(image)))
		for pc := uint32(0); pc <= words && pc+1 < FlashWords; pc++ {
			plain := Decode(wordAt(cpu.Flash, pc), wordAt(cpu.Flash, pc+1))
			if cached := cpu.fetch(pc); cached != plain {
				t.Fatalf("pc %d after rewrite: cached = %+v, uncached = %+v", pc, cached, plain)
			}
		}

		// Rewrite only the first word of page 1 and invalidate just that
		// word: the last word of page 0, which may start a two-word
		// instruction whose operand this is, must be re-decoded too.
		if len(image) >= SPMPageSize+2 {
			cpu.Flash[SPMPageSize] ^= 0x5A
			cpu.Flash[SPMPageSize+1] ^= 0x5A
			cpu.InvalidateFlash(SPMPageSize, 2)
			for pc := uint32(0); pc <= words && pc+1 < FlashWords; pc++ {
				plain := Decode(wordAt(cpu.Flash, pc), wordAt(cpu.Flash, pc+1))
				if cached := cpu.fetch(pc); cached != plain {
					t.Fatalf("pc %d after page-boundary rewrite: cached = %+v, uncached = %+v", pc, cached, plain)
				}
			}
		}
	})
}

// straddleImage is a run of nops from word 0, then "lds r16, 0x0100"
// with its opcode as the last word of flash page 0 and its operand as
// the first word of page 1, then "rjmp" back to word 0.
func straddleImage() []byte {
	img := make([]byte, SPMPageSize+6)
	copy(img[SPMPageSize-2:], []byte{
		0x00, 0x91, // lds r16, ...  (word 127)
		0x00, 0x01, // ... 0x0100    (word 128)
		0x7E, 0xCF, // rjmp .-260    (word 129, back to word 0)
	})
	return img
}

// FuzzBlockExec is the differential conformance harness for the block
// translation engine: the same flash image, register seed and stimulus
// plan run on a ForceInterpreter CPU and a block-engine CPU in
// lockstep, and every observable piece of state — registers, I/O,
// SRAM, PC, cycle count, sleep state, interrupt latches and faults —
// must match after every Run slice. Rounds repeat the image so entry
// PCs cross the heat threshold and later rounds execute translated
// blocks; the plan byte toggles interrupts between slices, an I/O
// write hook that raises an interrupt mid-block, a mid-corpus flash
// rewrite with invalidation, a mid-corpus one-word rewrite at the
// first word of page 1, and a stack pointer seeded next to SRAMBase,
// where pushes fault and stack bytes reach the hooked I/O space.
func FuzzBlockExec(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00}, []byte{1, 2, 3}, byte(0))
	// ldi r16,0x42 ; ldi r17,1 ; add r16,r17 ; rjmp .-8
	f.Add([]byte{0x02, 0xE4, 0x11, 0xE0, 0x01, 0x0F, 0xFC, 0xCF}, []byte{0xFF}, byte(1))
	// sei ; out 0x20,r16 ; nop ; rjmp .-8 (hook + SEI delay window)
	f.Add([]byte{0x78, 0x94, 0x00, 0xB9, 0x00, 0x00, 0xFC, 0xCF}, []byte{0x80}, byte(3))
	// push r0 x3 ; ret (stack traffic, PopPC of garbage)
	f.Add([]byte{0x0F, 0x92, 0x0F, 0x92, 0x0F, 0x92, 0x08, 0x95}, []byte{7}, byte(2))
	// cp/cpc chain into brbs (flag liveness across a branch)
	f.Add([]byte{0x01, 0x17, 0x12, 0x07, 0x11, 0xF0, 0xFC, 0xCF}, []byte{9, 9, 1}, byte(5))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, []byte{}, byte(8))
	// lds straddling the page 0/1 boundary, its operand word rewritten
	// alone mid-corpus
	f.Add(straddleImage(), []byte{}, byte(16))
	// push r0 ; call .+0 ; pop r1 ; ret with SP seeded at SRAMBase+3
	// and a write hook: stack traffic across the bottom of SRAM
	f.Add([]byte{0x0F, 0x92, 0x0E, 0x94, 0x03, 0x00, 0x1F, 0x90, 0x08, 0x95}, []byte{0x10, 0x0B}, byte(32|2))

	f.Fuzz(func(t *testing.T, image, regs []byte, plan byte) {
		if len(image) == 0 {
			return
		}
		if len(image) > 2048 {
			image = image[:2048]
		}
		hookAddr := uint16(IOBase + int(plan&0x3F))
		budgets := []uint64{1, 3, 17, 151, 1024, 4096}

		mk := func(force bool) *CPU {
			c := New()
			c.ForceInterpreter = force
			if err := c.LoadFlash(image); err != nil {
				t.Fatal(err)
			}
			if plan&2 != 0 {
				c.HookWrite(hookAddr, func(byte) { c.RaiseInterrupt(VectorTimer0Ovf) })
			}
			if plan&4 != 0 {
				c.HookRead(hookAddr, func(cur byte) byte { return cur ^ 0x5A })
			}
			return c
		}
		ref := mk(true)
		blk := mk(false)

		seed := func(c *CPU) {
			c.Reset()
			for i := 0; i < len(regs) && i < 32; i++ {
				c.Data[i] = regs[i]
			}
			if len(regs) > 0 {
				c.SetSREG(regs[0])
				if plan&32 != 0 {
					// SP in [SRAMBase-8, SRAMBase+7]: the fused stack
					// paths must fall back to the byte-at-a-time one.
					c.SetSP(SRAMBase - 8 + uint16(regs[len(regs)-1]&0x0F))
				}
			}
		}
		state := func(c *CPU) string {
			return fmt.Sprintf("pc=%d cyc=%d sleep=%v supp=%v pend=%d fault=%+v",
				c.PC, c.Cycles, c.Sleeping, c.intSuppress, c.pendingInts, c.Fault())
		}

		for round := 0; round < 6; round++ {
			seed(ref)
			seed(blk)
			if plan&8 != 0 && round == 3 {
				// Mid-corpus reprogramming, as MAVR's re-randomizer
				// does: both CPUs rewrite and invalidate identically,
				// so stale translations must retranslate.
				n := len(image)
				if n > 64 {
					n = 64
				}
				for _, c := range []*CPU{ref, blk} {
					for i := 0; i < n; i++ {
						c.Flash[i] ^= 0xA5
					}
					c.InvalidateFlash(0, uint32(n))
				}
			}
			if plan&16 != 0 && round == 3 && len(image) >= SPMPageSize+2 {
				// Rewrite only the first word of page 1: a translation
				// ending in a two-word instruction straddling the page
				// boundary must retranslate too.
				for _, c := range []*CPU{ref, blk} {
					c.Flash[SPMPageSize] ^= 0xA5
					c.Flash[SPMPageSize+1] ^= 0xA5
					c.InvalidateFlash(SPMPageSize, 2)
				}
			}
			for s, budget := range budgets {
				ref.Run(budget)
				blk.Run(budget)
				if rs, bs := state(ref), state(blk); rs != bs {
					t.Fatalf("round %d slice %d (budget %d): interp %s != block %s", round, s, budget, rs, bs)
				}
				if !bytes.Equal(ref.Data, blk.Data) {
					for i := range ref.Data {
						if ref.Data[i] != blk.Data[i] {
							t.Fatalf("round %d slice %d: data[0x%04X] interp %02X != block %02X",
								round, s, i, ref.Data[i], blk.Data[i])
						}
					}
				}
				if plan&1 != 0 {
					ref.RaiseInterrupt(VectorTimer0Ovf)
					blk.RaiseInterrupt(VectorTimer0Ovf)
				}
			}
		}
	})
}
