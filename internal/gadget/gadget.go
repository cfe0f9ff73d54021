// Package gadget implements the ROP-gadget discovery the MAVR paper's
// attacker performs on the unprotected application binary (§IV): a scan
// for ret-terminated instruction sequences, plus pattern matchers for
// the two specific gadgets the stealthy attack needs — stk_move
// (Fig. 4) and write_mem_gadget (Fig. 5).
//
// AVR instructions are 16-bit aligned, so candidate gadget starts are
// scanned at every word offset — including the interiors of two-word
// instructions, which yields unintended sequences exactly as on real
// hardware.
package gadget

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"mavr/internal/avr"
)

// Kind classifies a gadget by its most useful effect.
type Kind int

// Gadget kinds.
const (
	// KindPopChain only pops registers before ret.
	KindPopChain Kind = iota + 1
	// KindStkMove writes the stack pointer from r28/r29 (out 0x3d/0x3e)
	// — the paper's SP-pivot primitive.
	KindStkMove
	// KindWriteMem stores registers through the Y pointer (std Y+q)
	// before popping — the paper's arbitrary-write primitive.
	KindWriteMem
	// KindOther is any other ret-terminated sequence.
	KindOther
)

func (k Kind) String() string {
	switch k {
	case KindPopChain:
		return "pop-chain"
	case KindStkMove:
		return "stk_move"
	case KindWriteMem:
		return "write_mem"
	}
	return "other"
}

// Gadget is one ret-terminated instruction sequence.
type Gadget struct {
	// Addr is the word address of the first instruction.
	Addr uint32
	// Instrs is the decoded sequence, ending in ret.
	Instrs []avr.Instr
	// Kind is the classification of the sequence.
	Kind Kind
}

// Words returns the gadget length in words.
func (g *Gadget) Words() int {
	n := 0
	for _, in := range g.Instrs {
		n += int(in.Words)
	}
	return n
}

const retWord = 0x9508

// minParallelWords is the image size (in words) below which a sharded
// scan is not worth the goroutine setup.
const minParallelWords = 16 * 1024

// Scan finds one gadget per ret instruction in image: the longest valid
// suffix of at most maxWords words that decodes cleanly into the ret
// with no intervening control transfer. The resulting count is the
// "gadgets found" figure of §VII-A.
//
// Large images are sharded across goroutines by flash region. Each
// shard owns the ret words inside its word range but reads the whole
// image when walking back from a ret, so sequences crossing a shard
// boundary — including the interiors of two-word instructions — are
// covered exactly as in a sequential scan. Shard results are merged in
// address order, so the output is byte-identical to a sequential scan.
func Scan(image []byte, maxWords int) []*Gadget {
	words := len(image) / 2
	shards := runtime.GOMAXPROCS(0)
	if words < minParallelWords || shards <= 1 {
		return scanRange(image, 0, words, maxWords)
	}
	return scanSharded(image, maxWords, shards)
}

// scanSharded runs the region-sharded scan with an explicit shard
// count (Scan picks GOMAXPROCS; tests pin it to cross-check against
// the sequential scan).
func scanSharded(image []byte, maxWords, shards int) []*Gadget {
	words := len(image) / 2
	chunk := (words + shards - 1) / shards
	results := make([][]*Gadget, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo := i * chunk
		hi := lo + chunk
		if hi > words {
			hi = words
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			results[i] = scanRange(image, lo, hi, maxWords)
		}(i, lo, hi)
	}
	wg.Wait()
	var out []*Gadget
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// scanRange scans the ret words in word range [lo, hi), reading the
// full image for the backward suffix walk. The decode window and
// fallthrough table are reused across rets to keep the loop
// allocation-free.
func scanRange(image []byte, lo, hi, maxWords int) []*Gadget {
	var out []*Gadget
	win := make([]avr.Instr, maxWords)
	ok := make([]bool, maxWords+1)
	for w := lo; w < hi; w++ {
		if wordAt(image, uint32(w)) != retWord {
			continue
		}
		g := longestSuffix(image, uint32(w), maxWords, win, ok)
		if g != nil {
			out = append(out, g)
		}
	}
	return out
}

// CountByKind tallies a scan result per classification.
func CountByKind(gs []*Gadget) map[Kind]int {
	m := make(map[Kind]int, 4)
	for _, g := range gs {
		m[g.Kind]++
	}
	return m
}

// longestSuffix finds the longest chain of valid instructions starting
// at or before ret (word address) that ends exactly at ret.
//
// Each of the maxWords window positions is decoded exactly once and
// the fallthrough property is computed backwards: position i falls
// through onto ret iff its instruction is valid straight-line code and
// decoding resumes either exactly at ret or at a position that itself
// falls through. The longest suffix is then the earliest such start —
// the same answer as re-decoding every candidate range, at O(maxWords)
// instead of O(maxWords²) decodes per ret.
//
// win and ok are caller-provided scratch of lengths maxWords and
// maxWords+1.
func longestSuffix(image []byte, ret uint32, maxWords int, win []avr.Instr, ok []bool) *Gadget {
	maxBack := maxWords
	if uint32(maxBack) > ret {
		maxBack = int(ret)
	}
	base := ret - uint32(maxBack)
	// ok[i] reports whether decoding from word base+i lands exactly on
	// ret; index maxBack is ret itself.
	ok[maxBack] = true
	best := -1
	for i := maxBack - 1; i >= 0; i-- {
		in := avr.DecodeAt(image, base+uint32(i))
		win[i] = in
		e := i + int(in.Words)
		ok[i] = straightLine(in.Op) && e <= maxBack && ok[e]
		if ok[i] {
			best = i
		}
	}
	if best < 0 {
		// A bare ret is still a (useless) gadget.
		return &Gadget{Addr: ret, Instrs: []avr.Instr{{Op: avr.OpRET, Words: 1}}, Kind: KindOther}
	}
	seq := make([]avr.Instr, 0, maxBack-best+1)
	for i := best; i < maxBack; i += int(win[i].Words) {
		seq = append(seq, win[i])
	}
	seq = append(seq, avr.Instr{Op: avr.OpRET, Words: 1})
	return &Gadget{Addr: base + uint32(best), Instrs: seq, Kind: classify(seq)}
}

// straightLine reports whether op can appear inside a gadget body: any
// valid instruction that is not a control transfer (a transfer before
// the ret means the sequence never reaches it).
func straightLine(op avr.Op) bool {
	switch op {
	case avr.OpInvalid,
		avr.OpRET, avr.OpRETI, avr.OpJMP, avr.OpRJMP, avr.OpIJMP,
		avr.OpEIJMP, avr.OpCALL, avr.OpRCALL, avr.OpICALL, avr.OpEICALL,
		avr.OpBRBS, avr.OpBRBC, avr.OpBREAK, avr.OpSLEEP:
		return false
	}
	return true
}

func classify(seq []avr.Instr) Kind {
	var (
		wroteSPL, wroteSPH bool
		stores, pops, rest int
	)
	for _, in := range seq[:len(seq)-1] {
		switch in.Op {
		case avr.OpOUT:
			switch in.A {
			case avr.IOAddrSPL:
				wroteSPL = true
			case avr.IOAddrSPH:
				wroteSPH = true
			case avr.IOAddrSREG:
			default:
				rest++
			}
		case avr.OpSTDY:
			stores++
		case avr.OpPOP:
			pops++
		default:
			rest++
		}
	}
	switch {
	case wroteSPL && wroteSPH && pops > 0:
		return KindStkMove
	case stores > 0 && pops > 0:
		return KindWriteMem
	case pops > 0 && rest == 0:
		return KindPopChain
	default:
		return KindOther
	}
}

// StkMove locates the paper's Fig. 4 gadget: consecutive writes of
// r29/r28 into SPH/SPL followed by pops and ret.
type StkMove struct {
	// Addr is the word address of the "out 0x3e, r29" instruction.
	Addr uint32
	// SPHReg and SPLReg are the registers written to SPH and SPL.
	SPHReg, SPLReg int
	// PopRegs are the registers popped between the SP write and ret, in
	// pop order.
	PopRegs []int
}

// WriteMem locates the paper's Fig. 5 combination gadget: three
// std Y+1..3 stores of r5..r7 followed by a long pop chain and ret.
type WriteMem struct {
	// StoreAddr is the word address of "std Y+1, r5" (first half).
	StoreAddr uint32
	// PopsAddr is the word address of the first pop (second half). The
	// attack uses the second half first, to load registers.
	PopsAddr uint32
	// StoreRegs are the registers stored to Y+1, Y+2, Y+3.
	StoreRegs [3]int
	// PopRegs are the popped registers in pop order.
	PopRegs []int
}

// Gadget-search errors.
var (
	ErrNoStkMove  = errors.New("gadget: no stk_move gadget in image")
	ErrNoWriteMem = errors.New("gadget: no write_mem gadget in image")
)

// FindStkMove scans image for a Fig. 4-shaped gadget, preferring the
// candidate with the shortest pop tail (the attacker wants to spend as
// few chain bytes as possible per pivot).
func FindStkMove(image []byte) (*StkMove, error) {
	var best *StkMove
	words := len(image) / 2
	for w := 0; w < words; w++ {
		in := avr.DecodeAt(image, uint32(w))
		if in.Op != avr.OpOUT || in.A != avr.IOAddrSPH {
			continue
		}
		g := &StkMove{Addr: uint32(w), SPHReg: int(in.D)}
		pc := uint32(w) + 1
		// Allow an SREG restore between the SP writes (the avr-gcc
		// interrupt-safe idiom) before the SPL write.
		for hops := 0; hops < 2; hops++ {
			next := avr.DecodeAt(image, pc)
			if next.Op == avr.OpOUT && next.A == avr.IOAddrSREG {
				pc++
				continue
			}
			break
		}
		splIn := avr.DecodeAt(image, pc)
		if splIn.Op != avr.OpOUT || splIn.A != avr.IOAddrSPL {
			continue
		}
		pc++
		pops, end := popRun(image, pc)
		if len(pops) == 0 {
			continue
		}
		if avr.DecodeAt(image, end).Op != avr.OpRET {
			continue
		}
		g.SPLReg = int(splIn.D)
		g.PopRegs = pops
		if best == nil || len(g.PopRegs) < len(best.PopRegs) {
			best = g
		}
	}
	if best == nil {
		return nil, ErrNoStkMove
	}
	return best, nil
}

// FindWriteMem scans image for a Fig. 5-shaped gadget. minPops sets the
// minimum pop-chain length (the paper's gadget pops 16 registers; the
// attack needs at least r29, r28 and the three stored registers in the
// chain).
func FindWriteMem(image []byte, minPops int) (*WriteMem, error) {
	words := len(image) / 2
	for w := 0; w < words; w++ {
		in := avr.DecodeAt(image, uint32(w))
		if in.Op != avr.OpSTDY || in.Q != 1 {
			continue
		}
		in2 := avr.DecodeAt(image, uint32(w)+1)
		in3 := avr.DecodeAt(image, uint32(w)+2)
		if in2.Op != avr.OpSTDY || in2.Q != 2 || in3.Op != avr.OpSTDY || in3.Q != 3 {
			continue
		}
		pops, end := popRun(image, uint32(w)+3)
		if len(pops) < minPops {
			continue
		}
		if avr.DecodeAt(image, end).Op != avr.OpRET {
			continue
		}
		g := &WriteMem{
			StoreAddr: uint32(w),
			PopsAddr:  uint32(w) + 3,
			StoreRegs: [3]int{int(in.D), int(in2.D), int(in3.D)},
			PopRegs:   pops,
		}
		// The pop chain must reload Y (r28/r29) and the stored regs so
		// the attack can chain pops -> stores.
		if !contains(pops, 28) || !contains(pops, 29) ||
			!contains(pops, g.StoreRegs[0]) || !contains(pops, g.StoreRegs[1]) || !contains(pops, g.StoreRegs[2]) {
			continue
		}
		return g, nil
	}
	return nil, ErrNoWriteMem
}

// PopOffset returns the byte offset within the gadget's pop data at
// which register r is loaded, or -1.
func (g *WriteMem) PopOffset(r int) int {
	for i, p := range g.PopRegs {
		if p == r {
			return i
		}
	}
	return -1
}

// PopOffset returns the byte offset within the stk_move tail's pop data
// at which register r is loaded, or -1.
func (g *StkMove) PopOffset(r int) int {
	for i, p := range g.PopRegs {
		if p == r {
			return i
		}
	}
	return -1
}

func popRun(image []byte, pc uint32) (regs []int, end uint32) {
	for {
		in := avr.DecodeAt(image, pc)
		if in.Op != avr.OpPOP {
			return regs, pc
		}
		regs = append(regs, int(in.D))
		pc++
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func wordAt(image []byte, w uint32) uint16 {
	i := int(w) * 2
	if i+1 >= len(image) {
		return 0xFFFF
	}
	return uint16(image[i]) | uint16(image[i+1])<<8
}

// Describe renders a gadget summary line.
func (g *Gadget) Describe() string {
	return fmt.Sprintf("%6x: %-9s (%d instrs)", g.Addr*2, g.Kind, len(g.Instrs))
}
