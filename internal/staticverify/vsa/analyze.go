package vsa

import (
	"fmt"
	"sort"

	"mavr/internal/avr"
)

// Input mirrors the recovered CFG in neutral types so this package
// does not import the verifier that drives it.
type Input struct {
	// Img is the flash image the functions were decoded from.
	Img []byte
	// RegionStart/RegionEnd delimit the shuffleable code region.
	RegionStart, RegionEnd uint32
	Funcs                  []Func
	Tables                 []Table
	// Patched lists flash byte offsets of 16-bit words the pointer
	// patcher rewrites per permutation.
	Patched []uint32
}

// Func is one function's basic blocks (byte addresses).
type Func struct {
	Name       string
	Start, End uint32
	Blocks     []Block
	// HasSPM excludes the function: self-modifying code invalidates
	// the analysis' image assumptions.
	HasSPM bool
}

// Block is one basic block with its intra-function successors.
type Block struct {
	Start, End uint32
	Succs      []uint32
}

// Table is one validated function-pointer table.
type Table struct {
	DataAddr, FlashOff, Words uint32
}

// Result is a whole-image analysis. Every address in it is relative to
// its function's start, and every Detail string is address-free, so a
// result computed on one image layout translates exactly to any
// permutation of the same base (the cached-verifier fast path).
type Result struct {
	Funcs []FuncResult
	Sites []Site
	// Reads are the flash ranges whose concrete bytes influenced the
	// analysis. Two images that agree byte-for-byte on these ranges
	// (and structurally via the lockstep diff) have isomorphic
	// analyses.
	Reads []Range
}

// FuncResult is the per-function stack-discipline verdict.
type FuncResult struct {
	Name string
	// StackProven: every path to every RET was shown to balance
	// pushes/pops and calls exactly, with no SP escape.
	StackProven bool
	// Skipped: the function was excluded (SPM).
	Skipped  bool
	Findings []Finding
}

// Finding is one structured stack-discipline problem.
type Finding struct {
	// Off is the instruction's byte offset relative to the function
	// start.
	Off    uint32
	Kind   string
	Detail string
}

// Stack finding kinds.
const (
	KindRetImbalance   = "ret-imbalance"
	KindStackUnproven  = "stack-unproven"
	KindSPEscape       = "sp-escape"
	KindStackUnderflow = "stack-underflow"
)

// Site is one indirect control transfer and what the analysis proved
// about its target pointer.
type Site struct {
	FuncIdx int
	// Off is the instruction's byte offset relative to the function
	// start.
	Off  uint32
	Op   avr.Op
	Call bool
	// Resolved: the target pointer provably comes from an enumerable
	// source. Words, when non-nil, lists flash byte offsets whose
	// little-endian word the pointer provably equals (matched-pair
	// provenance — exact); otherwise Lo/Hi describe the pointer halves
	// independently and Targets takes their cross product.
	Resolved bool
	Words    []uint32 `json:"words,omitempty"`
	Lo, Hi   HalfSource
}

// HalfSource describes one half of a resolved 16-bit code pointer:
// either bytes read from specific flash offsets of the verified image
// (table provenance — exact even for patched table words), or an
// explicit byte set.
type HalfSource struct {
	Offs []uint32 `json:"offs,omitempty"`
	Set  []byte   `json:"set,omitempty"`
}

// Range is a half-open byte range [Off, Off+Len).
type Range struct {
	Off, Len uint32
}

// Caps on site resolution: a site stays unresolved rather than carry
// an absurdly large proven set.
const (
	siteHalfCap    = 64
	siteProductCap = 256
)

// Analyze runs the value-set fixpoint over every function.
func Analyze(in *Input) *Result {
	ctx := &Ctx{
		Img:         in.Img,
		RegionStart: in.RegionStart,
		RegionEnd:   in.RegionEnd,
		Tables:      in.Tables,
		reads:       make(map[uint32]bool),
	}
	if len(in.Patched) > 0 {
		ctx.Patched = make(map[uint32]bool, 2*len(in.Patched))
		for _, off := range in.Patched {
			ctx.Patched[off] = true
			ctx.Patched[off+1] = true
		}
	}
	res := &Result{}
	for fi := range in.Funcs {
		f := &in.Funcs[fi]
		if f.HasSPM || len(f.Blocks) == 0 {
			res.Funcs = append(res.Funcs, FuncResult{Name: f.Name, Skipped: true})
			continue
		}
		fa := &funcAnalyzer{ctx: ctx, f: f, fi: fi}
		fr, sites := fa.run()
		res.Funcs = append(res.Funcs, fr)
		res.Sites = append(res.Sites, sites...)
	}
	res.Reads = coalesceReads(ctx.reads)
	return res
}

// coalesceReads folds the recorded flash offsets into sorted ranges.
func coalesceReads(reads map[uint32]bool) []Range {
	if len(reads) == 0 {
		return nil
	}
	offs := make([]uint32, 0, len(reads))
	for off := range reads {
		offs = append(offs, off)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	var out []Range
	for _, off := range offs {
		if n := len(out); n > 0 && out[n-1].Off+out[n-1].Len == off {
			out[n-1].Len++
			continue
		}
		out = append(out, Range{Off: off, Len: 1})
	}
	return out
}

type funcAnalyzer struct {
	ctx *Ctx
	f   *Func
	fi  int

	states []*State // fixpoint in-state per block
	visits []int
}

func (a *funcAnalyzer) run() (FuncResult, []Site) {
	n := len(a.f.Blocks)
	a.states = make([]*State, n)
	a.visits = make([]int, n)
	idx := make(map[uint32]int, n)
	for i, b := range a.f.Blocks {
		a.states[i] = &State{Bot: true}
		idx[b.Start] = i
	}
	// The entry block starts the function; blocks only reachable
	// through an indirect jump stay bottom and are skipped — the
	// function is then reported unproven below.
	entry := 0
	for i, b := range a.f.Blocks {
		if b.Start == a.f.Start {
			entry = i
			break
		}
	}
	a.states[entry] = EntryState()

	queue := []int{entry}
	queued := make([]bool, n)
	queued[entry] = true
	for len(queue) > 0 {
		bi := queue[0]
		queue = queue[1:]
		queued[bi] = false
		out := a.states[bi].Clone()
		a.walk(bi, out, nil, nil)
		for _, s := range a.f.Blocks[bi].Succs {
			si, ok := idx[s]
			if !ok {
				continue
			}
			a.visits[si]++
			if a.states[si].Join(out, a.visits[si] > visitCap) && !queued[si] {
				queue = append(queue, si)
				queued[si] = true
			}
		}
	}

	// Reporting pass: every block once more from its fixed in-state,
	// now collecting findings and site descriptors.
	fr := FuncResult{Name: a.f.Name}
	var sites []Site
	hasIndirectJump := false
	for bi := range a.f.Blocks {
		if a.states[bi].Bot {
			continue
		}
		st := a.states[bi].Clone()
		emit := func(off uint32, kind, detail string) {
			fr.Findings = append(fr.Findings, Finding{Off: off - a.f.Start, Kind: kind, Detail: detail})
		}
		siteSink := func(s Site) {
			if s.Op == avr.OpIJMP || s.Op == avr.OpEIJMP {
				hasIndirectJump = true
			}
			sites = append(sites, s)
		}
		a.walk(bi, st, emit, siteSink)
	}
	sort.Slice(fr.Findings, func(i, j int) bool {
		if fr.Findings[i].Off != fr.Findings[j].Off {
			return fr.Findings[i].Off < fr.Findings[j].Off
		}
		return fr.Findings[i].Kind < fr.Findings[j].Kind
	})
	fr.Findings = dedupFindings(fr.Findings)
	sort.Slice(sites, func(i, j int) bool { return sites[i].Off < sites[j].Off })

	fr.StackProven = len(fr.Findings) == 0 && !hasIndirectJump
	if hasIndirectJump && len(fr.Findings) == 0 {
		fr.Findings = append(fr.Findings, Finding{
			Kind:   KindStackUnproven,
			Detail: "function exits through an indirect jump; per-function stack reasoning is incomplete",
		})
	}
	return fr, sites
}

func dedupFindings(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i == 0 || f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

// walk abstractly executes one block. emit/siteSink are nil during
// fixpoint iteration and non-nil during the reporting pass.
func (a *funcAnalyzer) walk(bi int, st *State, emit func(off uint32, kind, detail string), siteSink func(Site)) {
	b := a.f.Blocks[bi]
	pc := b.Start / 2
	end := b.End / 2
	for pc < end {
		in := avr.DecodeAt(a.ctx.Img, pc)
		if in.Words == 0 {
			break
		}
		addr := pc * 2
		if emit != nil {
			a.ctx.emit = func(kind, detail string) { emit(addr, kind, detail) }
		} else {
			a.ctx.emit = nil
		}
		switch in.Op {
		case avr.OpICALL, avr.OpEICALL, avr.OpIJMP, avr.OpEIJMP:
			if siteSink != nil {
				siteSink(a.resolveSite(st, in, addr))
			}
			if in.Op == avr.OpICALL || in.Op == avr.OpEICALL {
				a.ctx.Step(st, in)
			}
		case avr.OpRET, avr.OpRETI:
			if emit != nil {
				a.checkRet(st, addr, emit)
			}
		case avr.OpSUBI:
			// Fused SUBI+SBCI on an SP-tagged pair: the pair moves by
			// the exact signed 16-bit immediate, so the tag survives
			// with an adjusted delta (frame allocate/release idiom).
			next := avr.DecodeAt(a.ctx.Img, pc+1)
			tag := st.Tags[in.D/2]
			fused := tag.Ok && in.D%2 == 0 && next.Op == avr.OpSBCI && next.D == in.D+1 &&
				pc+1 < end
			a.ctx.Step(st, in)
			if fused {
				a.ctx.Step(st, next)
				imm := int32(int16(uint16(next.K)<<8 | uint16(in.K)))
				tag.Delta = tag.Delta.Add(imm)
				st.Tags[in.D/2] = tag
				pc += uint32(in.Words) + uint32(next.Words)
				continue
			}
		default:
			if n := a.tryWordPair(st, in, pc, end); n > 0 {
				pc += n
				continue
			}
			a.ctx.Step(st, in)
		}
		pc += uint32(in.Words)
	}
	a.ctx.emit = nil
}

// tryWordPair recognizes the two-instruction adjacent-load idioms that
// prove a register pair holds one little-endian word of a table:
//
//	ld  rd, P+  ; ld  rd+1, P      (or a second post-increment)
//	ldd rd, P+q ; ldd rd+1, P+q+1
//	lpm rd, Z+  ; lpm rd+1, Z(+)
//
// The second load's address is the first's plus one by construction
// (the post-increment or displacement is on the same base pointer), so
// the matched lo/hi correlation holds on every execution — which the
// independent per-half sets cannot express. Both instructions are
// stepped normally and the matched-word provenance is recorded on top;
// returns the words consumed, or 0 when the pattern does not apply.
func (a *funcAnalyzer) tryWordPair(st *State, in avr.Instr, pc, end uint32) uint32 {
	d := in.D
	if d%2 != 0 || pc+uint32(in.Words) >= end {
		return 0
	}
	next := avr.DecodeAt(a.ctx.Img, pc+uint32(in.Words))
	if next.D != d+1 || pc+uint32(in.Words)+uint32(next.Words) > end {
		return 0
	}
	var offs []uint32
	switch in.Op {
	case avr.OpLDXInc, avr.OpLDYInc, avr.OpLDZInc:
		var ptr int
		var second bool
		switch in.Op {
		case avr.OpLDXInc:
			ptr = avr.RegXL
			second = next.Op == avr.OpLDX || next.Op == avr.OpLDXInc
		case avr.OpLDYInc:
			ptr = avr.RegYL
			second = next.Op == avr.OpLDYInc || (next.Op == avr.OpLDDY && next.Q == 0)
		default:
			ptr = avr.RegZL
			second = next.Op == avr.OpLDZInc || (next.Op == avr.OpLDDZ && next.Q == 0)
		}
		if !second || int(d) == ptr {
			return 0
		}
		offs = a.ctx.wordOffs(st.pairAddrs(ptr))
	case avr.OpLDDY, avr.OpLDDZ:
		ptr := avr.RegYL
		if in.Op == avr.OpLDDZ {
			ptr = avr.RegZL
		}
		if next.Op != in.Op || next.Q != in.Q+1 || int(d) == ptr {
			return 0
		}
		offs = a.ctx.wordOffs(offsetAddrs(st.pairAddrs(ptr), uint16(in.Q)))
	case avr.OpLPMZInc:
		if (next.Op != avr.OpLPMZ && next.Op != avr.OpLPMZInc) || d == avr.RegZL {
			return 0
		}
		offs = a.ctx.flashWordOffs(st.pairAddrs(avr.RegZL))
	default:
		return 0
	}
	a.ctx.Step(st, in)
	a.ctx.Step(st, next)
	if offs != nil && len(offs) <= siteHalfCap {
		st.Words[d/2] = offs
	}
	return uint32(in.Words) + uint32(next.Words)
}

// checkRet verifies the stack height at a return: RET must see exactly
// the entry height (the return address it pops is the caller's).
func (a *funcAnalyzer) checkRet(st *State, addr uint32, emit func(off uint32, kind, detail string)) {
	switch {
	case st.H.IsZero():
	case st.H.Top:
		emit(addr, KindStackUnproven, "stack height unknown at return (SP re-pointed or loop widened)")
	default:
		emit(addr, KindRetImbalance,
			fmt.Sprintf("return with %s bytes left on the frame; RET will pop the wrong return address", heightStr(st.H)))
	}
}

func heightStr(h Height) string {
	if h.Singleton() {
		return fmt.Sprintf("%d", h.Lo)
	}
	return fmt.Sprintf("[%d,%d]", h.Lo, h.Hi)
}

// resolveSite captures what the abstract state proves about an
// indirect transfer's target pointer.
func (a *funcAnalyzer) resolveSite(st *State, in avr.Instr, addr uint32) Site {
	s := Site{
		FuncIdx: a.fi,
		Off:     addr - a.f.Start,
		Op:      in.Op,
		Call:    in.Op == avr.OpICALL || in.Op == avr.OpEICALL,
	}
	if in.Op == avr.OpEICALL || in.Op == avr.OpEIJMP {
		// Extended transfers prepend EIND bit 0; only a proven-zero
		// EIND reduces them to the 16-bit case.
		eind := st.EIND
		if eind.IsTop() || eind.Size() != 1 || !eind.Has(0) {
			return s
		}
	}
	if w := st.Words[avr.RegZL/2]; w != nil && len(w) <= siteHalfCap {
		s.Resolved = true
		s.Words = w
		return s
	}
	lo, okL := halfSource(st.Regs[avr.RegZL])
	hi, okH := halfSource(st.Regs[avr.RegZL+1])
	if !okL || !okH || halfSize(lo)*halfSize(hi) > siteProductCap {
		return s
	}
	s.Resolved = true
	s.Lo, s.Hi = lo, hi
	return s
}

func halfSource(v Val) (HalfSource, bool) {
	if v.Tab != nil && len(v.Tab) <= siteHalfCap {
		return HalfSource{Offs: v.Tab}, true
	}
	if !v.Set.IsTop() && v.Set.Size() <= siteHalfCap && !v.Set.IsEmpty() {
		return HalfSource{Set: v.Set.Values()}, true
	}
	return HalfSource{}, false
}

func halfSize(h HalfSource) int {
	if h.Offs != nil {
		return len(h.Offs)
	}
	return len(h.Set)
}
