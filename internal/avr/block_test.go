package avr_test

import (
	"bytes"
	"fmt"
	"testing"

	"mavr/internal/asm"
	"mavr/internal/avr"
)

// hotLoopHeader is a prologue that calls sub enough times to push its
// entry PC past the block engine's heat threshold, so by the time the
// interesting part of each test runs, sub executes as a translated
// block rather than through the interpreter.
const hotLoopHeader = `
	ldi r24, 8
loop:
	call sub
	dec r24
	brne loop
`

// An SPM self-rewrite of an instruction inside a hot, cached block
// must invalidate the translation: the second call has to execute the
// rewritten code. This is the decode-cache SPM test (cache_test.go)
// replayed against the block layer — MAVR's bootloader reprogramming
// path depends on it.
func TestBlockSPMRewriteInvalidatesTranslation(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	; fill buffer word 0 with "ldi r20, 2" (bytes 42 E0)
	ldi r16, 0x42
	mov r0, r16
	ldi r16, 0xE0
	mov r1, r16
	ldi r30, 0x00   ; Z = byte 0x0200 (word 0x100)
	ldi r31, 0x02
	ldi r17, 0x01   ; SPMEN: buffer fill
	sts 0x57, r17
	spm

	; fill buffer word 1 with "ret" (bytes 08 95)
	ldi r16, 0x08
	mov r0, r16
	ldi r16, 0x95
	mov r1, r16
	ldi r30, 0x02
	sts 0x57, r17
	spm

	; erase the page, then commit the buffer
	ldi r30, 0x00
	ldi r17, 0x03   ; SPMEN|PGERS
	sts 0x57, r17
	spm
	ldi r17, 0x05   ; SPMEN|PGWRT
	sts 0x57, r17
	spm

	call sub        ; must run the rewritten code
	sleep

.org 0x100
sub:
	ldi r20, 1
	ret
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := avr.New()
	c.ForceInterpreter = false // independent of the env escape hatch
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatalf("fault: %v", fault)
	}
	if !c.Sleeping {
		t.Fatal("program did not finish")
	}
	if got := c.Reg(20); got != 2 {
		t.Errorf("r20 = %d after SPM rewrite, want 2 (stale translation?)", got)
	}
	st := c.TranslationStats()
	if st.Execs == 0 || st.Translated == 0 {
		t.Errorf("block engine never engaged: %+v", st)
	}
	if st.Invalidated == 0 {
		t.Errorf("SPM rewrite did not invalidate any translation: %+v", st)
	}
}

// A partial InvalidateFlash whose byte range spans an SPM page
// boundary must invalidate a hot block that also spans it. The
// subroutine straddles the page-0/page-1 edge (byte 0x100); both of
// its ldi immediates — one on each side of the edge — are patched in
// place with a single invalidation covering the straddling range.
func TestBlockPartialInvalidateSpansBoundary(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	call sub
	sleep

.org 0x7F
sub:
	ldi r21, 1      ; word 0x7F: bytes 0xFE-0xFF, last word of page 0
	ldi r22, 1      ; word 0x80: bytes 0x100-0x101, first word of page 1
	ret
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := avr.New()
	c.ForceInterpreter = false
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	// Pin the layout the test depends on: "ldi r21,1" encodes as 0xE051
	// (low byte 0x51 at 0xFE), "ldi r22,1" as 0xE061 (low byte 0x61 at
	// 0x100).
	if c.Flash[0xFE] != 0x51 || c.Flash[0x100] != 0x61 {
		t.Fatalf("unexpected layout: % X", c.Flash[0xFE:0x104])
	}
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatalf("fault: %v", fault)
	}
	if !c.Sleeping || c.Reg(21) != 1 || c.Reg(22) != 1 {
		t.Fatalf("first run: sleeping=%v r21=%d r22=%d", c.Sleeping, c.Reg(21), c.Reg(22))
	}
	before := c.TranslationStats()
	if before.Execs == 0 {
		t.Fatalf("block engine never engaged: %+v", before)
	}

	// Patch both ldi immediates to 9 (low nibble of the low byte) and
	// invalidate with one range crossing the page boundary at 0x100.
	c.Flash[0xFE] = 0x59
	c.Flash[0x100] = 0x69
	c.InvalidateFlash(0xFE, 0x102-0xFE)
	c.Reset()
	if _, fault := c.Run(100_000); fault != nil {
		t.Fatalf("fault after patch: %v", fault)
	}
	if c.Reg(21) != 9 || c.Reg(22) != 9 {
		t.Errorf("after partial invalidate: r21=%d r22=%d, want 9/9 (stale translation?)", c.Reg(21), c.Reg(22))
	}
	if after := c.TranslationStats(); after.Invalidated == before.Invalidated {
		t.Errorf("partial InvalidateFlash did not invalidate the hot block: %+v", after)
	}
}

// An interrupt raised by an I/O write hook in the middle of a
// translated block must bail to the interpreter at the exact
// instruction boundary the interpreter would dispatch at. Run the same
// program on a ForceInterpreter reference and the block engine in
// lockstep slices and require identical state throughout.
func TestBlockInterruptMidBlockMatchesInterpreter(t *testing.T) {
	img, err := asm.Assemble(`
	jmp start

.org 0x2E           ; vector 23 (TIMER0 OVF) lives at word 46
	jmp isr

.org 0x60
start:
	sei
loop:
	out 0x15, r20   ; hooked: raises TIMER0 OVF mid-block
	inc r20
	inc r21
	inc r22
	inc r23
	rjmp loop

.org 0x90
isr:
	inc r25
	reti
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	mk := func(force bool) *avr.CPU {
		c := avr.New()
		c.ForceInterpreter = force
		if err := c.LoadFlash(img); err != nil {
			t.Fatal(err)
		}
		c.HookWrite(0x20+0x15, func(byte) { c.RaiseInterrupt(avr.VectorTimer0Ovf) })
		return c
	}
	ref := mk(true)
	blk := mk(false)
	state := func(c *avr.CPU) string {
		return fmt.Sprintf("pc=%d cyc=%d sleep=%v pend=%v fault=%+v",
			c.PC, c.Cycles, c.Sleeping, c.PendingInterrupts(), c.Fault())
	}
	for s, budget := range []uint64{7, 64, 333, 1000, 5000, 5000, 5000} {
		ref.Run(budget)
		blk.Run(budget)
		if rs, bs := state(ref), state(blk); rs != bs {
			t.Fatalf("slice %d: interpreter %s != block engine %s", s, rs, bs)
		}
		if !bytes.Equal(ref.Data, blk.Data) {
			t.Fatalf("slice %d: data spaces diverged", s)
		}
	}
	if ref.Reg(25) == 0 {
		t.Fatal("interrupt handler never ran; the test exercised nothing")
	}
	st := blk.TranslationStats()
	if st.Execs == 0 {
		t.Errorf("block engine never engaged: %+v", st)
	}
	if st.Bails == 0 {
		t.Errorf("no mid-block interrupt bail recorded: %+v", st)
	}
}

// RunUntil on a sleeping core must fast-forward the remaining budget
// exactly like Run, instead of returning after a single one-cycle
// sleep step (the pre-fix behavior made bootloader handover timeouts
// return ~1M cycles early).
func TestRunUntilSleepConsumesBudget(t *testing.T) {
	img, err := asm.Assemble(`
	nop
	sleep
	`)
	if err != nil {
		t.Fatal(err)
	}
	c := avr.New()
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	done, fault := c.RunUntil(1000, func(*avr.CPU) bool { return false })
	if fault != nil {
		t.Fatal(fault)
	}
	if done {
		t.Error("pred never true but RunUntil reported done")
	}
	if c.Cycles != 1000 {
		t.Errorf("Cycles = %d after sleeping RunUntil, want the full 1000 budget", c.Cycles)
	}
	// A cycle-horizon predicate is satisfied by the fast-forward itself.
	done, fault = c.RunUntil(500, func(c *avr.CPU) bool { return c.Cycles >= 1400 })
	if fault != nil {
		t.Fatal(fault)
	}
	if !done || c.Cycles != 1500 {
		t.Errorf("done=%v Cycles=%d, want true, 1500", done, c.Cycles)
	}
}

// The interpreter escape hatches must actually disable the engine:
// ForceInterpreter CPUs and CPUs with an OnStep tracer never execute
// translated blocks.
func TestBlockEngineDisabledByEscapeHatches(t *testing.T) {
	img, err := asm.Assemble(hotLoopHeader + `
	call sub
	sleep

.org 0x100
sub:
	ldi r20, 1
	ret
	`)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		setup func(*avr.CPU)
	}{
		{"ForceInterpreter", func(c *avr.CPU) { c.ForceInterpreter = true }},
		{"OnStep", func(c *avr.CPU) {
			c.ForceInterpreter = false
			c.OnStep = func(uint32, avr.Instr) {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := avr.New()
			tc.setup(c)
			if err := c.LoadFlash(img); err != nil {
				t.Fatal(err)
			}
			if _, fault := c.Run(100_000); fault != nil {
				t.Fatal(fault)
			}
			if !c.Sleeping || c.Reg(20) != 1 {
				t.Fatalf("program misbehaved: sleeping=%v r20=%d", c.Sleeping, c.Reg(20))
			}
			if st := c.TranslationStats(); st.Execs != 0 || st.Translated != 0 || st.Linked != 0 {
				t.Errorf("engine engaged despite escape hatch: %+v", st)
			}
		})
	}
}

// linkLoop runs a between page 0 and b on flash page 2 (byte 0x200)
// sixteen times, entering each block through its predecessor's
// successor link once the loop is hot. r20 holds b's immediate.
const linkLoop = `
	ldi r24, 16
a:
	inc r22
	jmp b

.org 0x100
b:
	ldi r20, 1      ; word 0x100, bytes 41 E0
	dec r24
	brne back
	sleep
back:
	jmp a

.org 0x300
	spm
`

// An SPM rewrite of b's page must reach execution even though a, on an
// untouched page, stays valid and still links to the old b: the
// rewrite stales every link. The retranslation count must be exactly
// what the block table alone produces: links save lookups, never
// invalidations.
func TestBlockLinksFollowSPMRewrite(t *testing.T) {
	img, err := asm.Assemble(linkLoop)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := avr.New()
	c.ForceInterpreter = false
	if err := c.LoadFlash(img); err != nil {
		t.Fatal(err)
	}
	if c.Flash[0x200] != 0x41 || c.Flash[0x201] != 0xE0 {
		t.Fatalf("unexpected layout: % X", c.Flash[0x200:0x204])
	}
	if _, f := c.Run(100_000); f != nil || !c.Sleeping || c.Reg(20) != 1 || c.Reg(22) != 16 {
		t.Fatalf("first run: fault=%v sleeping=%v r20=%d r22=%d", f, c.Sleeping, c.Reg(20), c.Reg(22))
	}
	before := c.TranslationStats()
	if before.Linked == 0 {
		t.Fatalf("hot loop entered no block through a link: %+v", before)
	}

	page := append([]byte(nil), c.Flash[0x200:0x300]...)
	page[0] = 0x42 // ldi r20, 2
	c.Reset()
	spmWritePage(t, c, 0x200, page)
	c.Reset()
	if _, f := c.Run(100_000); f != nil || !c.Sleeping || c.Reg(22) != 16 {
		t.Fatalf("second run: fault=%v sleeping=%v r22=%d", f, c.Sleeping, c.Reg(22))
	}
	if got := c.Reg(20); got != 2 {
		t.Errorf("r20 = %d after rewriting b, want 2 (a stale link ran the old b)", got)
	}
	after := c.TranslationStats()
	// b's block and the "jmp a" block behind it sit on the rewritten
	// page; a's block does not.
	if got := after.Invalidated - before.Invalidated; got != 2 {
		t.Errorf("rewrite invalidated %d translations, want 2: %+v", got, after)
	}
	if after.Linked == before.Linked {
		t.Errorf("no link hits after the rewrite: %+v", after)
	}
}

// Loading a different image between two Run calls must switch
// execution to it mid-loop, links and all.
func TestBlockLinksFollowLoadFlash(t *testing.T) {
	img1, err := asm.Assemble(linkLoop)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	img2 := append([]byte(nil), img1...)
	img2[0x200] = 0x42 // ldi r20, 2
	c := avr.New()
	c.ForceInterpreter = false
	if err := c.LoadFlash(img1); err != nil {
		t.Fatal(err)
	}
	// Stop mid-loop, after the blocks are hot and linked.
	if _, f := c.Run(120); f != nil || c.Sleeping || c.Reg(20) != 1 {
		t.Fatalf("first run: fault=%v sleeping=%v r20=%d", f, c.Sleeping, c.Reg(20))
	}
	if st := c.TranslationStats(); st.Linked == 0 {
		t.Fatalf("no link hits before the reload: %+v", st)
	}
	if err := c.LoadFlash(img2); err != nil {
		t.Fatal(err)
	}
	if _, f := c.Run(100_000); f != nil || !c.Sleeping {
		t.Fatalf("second run: fault=%v sleeping=%v", f, c.Sleeping)
	}
	if c.Reg(20) != 2 || c.Reg(22) != 16 {
		t.Errorf("after LoadFlash: r20=%d r22=%d, want 2 and 16 (stale translation or link?)", c.Reg(20), c.Reg(22))
	}
}

// Hooks exist in I/O space only: SRAM is plain memory with a direct
// load/store path, so installing a hook at or above SRAMBase panics.
func TestHooksRejectSRAMAddresses(t *testing.T) {
	c := avr.New()
	c.HookRead(avr.SRAMBase-1, func(v byte) byte { return v })
	c.HookWrite(avr.SRAMBase-1, func(byte) {})
	for name, install := range map[string]func(){
		"HookRead":  func() { c.HookRead(avr.SRAMBase, func(v byte) byte { return v }) },
		"HookWrite": func() { c.HookWrite(avr.SRAMBase, func(byte) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s at SRAMBase did not panic", name)
				}
			}()
			install()
		}()
	}
}
