package avr

// Paged predecode cache.
//
// Every workload in this reproduction — attack delivery, boot-time
// re-randomization, timing analysis — bottoms out in the CPU dispatch
// loop. Re-decoding the same flash words on every executed cycle is
// pure waste: flash only changes through a handful of well-defined
// channels. The cache keeps one table of decoded instructions per SPM
// page (128 words); fetches are served from it.
//
// A page table is built whole the first time any word in the page is
// fetched, and a nil table means nothing in the page is decoded. So a
// core pays only for the flash it actually executes: a few KiB per
// page touched, instead of a table covering all of flash. The decode,
// translated-block (block.go) and page-generation tables share the
// same page index.
//
// Invalidation contract (load-bearing for MAVR, whose whole defense is
// rewriting flash under the application):
//
//   - LoadFlash replaces the entire image        -> every page dropped
//   - SPM page erase/write (spm.go)              -> page dropped
//   - external writes (bootloader installation,
//     board-level programming)                   -> caller invalidates
//     via InvalidateFlash
//
// A range invalidation always extends one word before the modified
// region: that word may be the first word of a two-word instruction
// whose second word just changed, and it may sit on the previous page.
// A dropped page is decoded again from current flash on its next
// fetch.

const (
	// pageWords is the number of flash words per SPM page, the unit of
	// the decode, block and generation tables.
	pageWords = SPMPageSize / 2
	// flashPages is the number of SPM pages in flash.
	flashPages = FlashSize / SPMPageSize
)

// decodePage holds the decoded instruction at every word of one flash
// page, each decoded as if execution started there.
type decodePage [pageWords]Instr

// fetch returns the decoded instruction at word address pc, decoding
// its page on a miss. pc must be < FlashWords.
func (c *CPU) fetch(pc uint32) Instr {
	p := c.decoded[pc/pageWords]
	if p == nil {
		p = c.fillDecodePage(pc / pageWords)
	}
	return p[pc%pageWords]
}

// fillDecodePage decodes flash page n whole and installs it.
func (c *CPU) fillDecodePage(n uint32) *decodePage {
	p := new(decodePage)
	pc := n * pageWords
	for i := range p {
		var w1 uint16
		if pc+1 < FlashWords {
			w1 = wordAt(c.Flash, pc+1)
		}
		p[i] = Decode(wordAt(c.Flash, pc), w1)
		pc++
	}
	c.decoded[n] = p
	return p
}

// InvalidateFlash marks n flash bytes starting at byte address start as
// modified: it drops the decode pages covering them and bumps their
// generation, so translated blocks over them retranslate on next entry,
// and it stales every block successor link.
// Code that writes c.Flash directly (the board's bootloader
// installation, external programmers) must call this; the CPU's own
// flash channels (LoadFlash, SPM) invalidate automatically.
func (c *CPU) InvalidateFlash(start, n uint32) {
	if n == 0 {
		return
	}
	lo := uint32(0)
	if start >= 2 {
		lo = (start - 2) / SPMPageSize // the word before may start a two-word instruction
	}
	hi := (start + n - 1) / SPMPageSize
	if hi >= flashPages {
		hi = flashPages - 1
	}
	for p := lo; p <= hi; p++ {
		c.decoded[p] = nil
		c.pageGen[p]++
	}
	c.flashEpoch++
}

// InvalidateAllFlash drops every decode page and invalidates every
// translated block.
func (c *CPU) InvalidateAllFlash() {
	for p := range c.decoded {
		c.decoded[p] = nil
		c.pageGen[p]++
	}
	c.flashEpoch++
}
