package staticverify

import (
	"errors"
	"fmt"

	"mavr/internal/avr"
	"mavr/internal/core"
	"mavr/internal/firmware"
)

// DiffStats counts what the patch-completeness diff proved.
type DiffStats struct {
	// TransfersChecked counts direct jmp/call/rjmp/rcall/brbs/brbc
	// instructions whose targets were proven remapped.
	TransfersChecked int `json:"transfers_checked"`
	// VectorsChecked counts interrupt-vector entries proven remapped.
	VectorsChecked int `json:"vectors_checked"`
	// PointersChecked counts data-section function pointers proven
	// remapped.
	PointersChecked int `json:"pointers_checked"`
	// WordsCompared counts program words walked in lockstep.
	WordsCompared int `json:"words_compared"`
}

// remapper rebuilds the address mapping a randomization outcome
// applied: old byte address -> new byte address.
func remapper(pre *core.Preprocessed, r *core.Randomized) func(uint32) uint32 {
	return func(old uint32) uint32 {
		i := pre.BlockIndex(old)
		if i < 0 {
			return old
		}
		return r.NewStart[i] + (old - pre.Blocks[i].Start)
	}
}

// VerifyPatches proves patch-completeness of a randomization outcome:
// it walks the original and randomized images in lockstep and checks
// that every direct control transfer, vector entry and tabled function
// pointer was rewritten to exactly its relocated target — and that
// nothing else changed. The returned findings are empty iff the
// rewrite is provably complete and faithful.
func VerifyPatches(pre *core.Preprocessed, r *core.Randomized) ([]Finding, DiffStats) {
	var findings []Finding
	var st DiffStats
	if len(r.Image) != len(pre.Image) {
		return []Finding{{
			Kind: KindSizeMismatch, Severity: SevError,
			Detail: fmt.Sprintf("randomized image is %d bytes, original %d", len(r.Image), len(pre.Image)),
		}}, st
	}
	remap := remapper(pre, r)
	newStarts := make(map[uint32]bool, len(pre.Blocks))
	for i := range pre.Blocks {
		newStarts[r.NewStart[i]] = true
	}

	// The vector table occupies the first NumVectors two-word jmp slots;
	// defects there get their own kind since a missed vector entry fires
	// on the next interrupt, not the next call.
	vecEnd := uint32(firmware.NumVectors) * 4
	if vecEnd > pre.RegionStart {
		vecEnd = pre.RegionStart
	}

	// Fixed low-flash region: same location in both images, but targets
	// into moved blocks must be remapped.
	findings = append(findings, diffRange(pre.Image, r.Image, 0, 0, pre.RegionStart, "", vecEnd, remap, &st)...)

	// Every relocated block, walked at its old and new location.
	for i, b := range pre.Blocks {
		findings = append(findings,
			diffRange(pre.Image, r.Image, b.Start, r.NewStart[i], b.Size, b.Name, vecEnd, remap, &st)...)
	}

	// Data-section function pointers (16-bit word addresses).
	for _, off := range pre.PtrOffsets {
		if int(off)+1 >= len(pre.Image) {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: off,
				Detail: "function-pointer offset outside the image",
			})
			continue
		}
		st.PointersChecked++
		oldW := uint32(pre.Image[off]) | uint32(pre.Image[off+1])<<8
		newW := uint32(r.Image[off]) | uint32(r.Image[off+1])<<8
		want := remap(oldW*2) / 2
		if newW != want {
			findings = append(findings, Finding{
				Kind: KindUnpatchedPointer, Severity: SevError, Addr: off,
				Detail: fmt.Sprintf("pointer 0x%X should be 0x%X after relocation, found 0x%X",
					oldW*2, want*2, newW*2),
			})
			continue
		}
		if t := want * 2; !newStarts[t] && t >= pre.RegionStart {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: off,
				Detail: fmt.Sprintf("relocated pointer 0x%X is not a function entry", t),
			})
		}
	}

	// Vector entries must land on relocated function entries (or fixed
	// code) in the new layout.
	for pc := uint32(0); pc*2 < vecEnd; pc += 2 {
		in := avr.DecodeAt(r.Image, pc)
		if in.Op != avr.OpJMP {
			continue
		}
		st.VectorsChecked++
		if t := in.Target * 2; !newStarts[t] && t >= pre.RegionStart {
			findings = append(findings, Finding{
				Kind: KindDanglingEdge, Severity: SevError, Addr: pc * 2,
				Detail: fmt.Sprintf("vector %d target 0x%X is not a function entry", pc/2, t),
			})
		}
	}
	return findings, st
}

// diffRange lockstep-walks size bytes of code living at oldStart in the
// original image and newStart in the randomized one. block names the
// function ("" for the fixed region); vecEnd bounds the vector table in
// the fixed region.
func diffRange(orig, rnd []byte, oldStart, newStart, size uint32, block string, vecEnd uint32, remap func(uint32) uint32, st *DiffStats) []Finding {
	var findings []Finding
	oldW, newW := oldStart/2, newStart/2
	endW := size / 2
	for pc := uint32(0); pc < endW; {
		oin := avr.DecodeAt(orig, oldW+pc)
		nin := avr.DecodeAt(rnd, newW+pc)
		addr := (newW + pc) * 2
		if oin.Op == avr.OpInvalid {
			findings = append(findings, Finding{
				Kind: KindUndecodable, Severity: SevError, Addr: addr, Block: block,
				Detail: "original instruction stream does not decode; diff truncated here",
			})
			return findings
		}
		if oin.Op != nin.Op || oin.Words != nin.Words {
			findings = append(findings, Finding{
				Kind: KindOpcodeMismatch, Severity: SevError, Addr: addr, Block: block,
				Detail: fmt.Sprintf("instruction changed from %s to %s; streams diverged, diff truncated here",
					oin.Op, nin.Op),
			})
			return findings
		}
		st.WordsCompared += int(oin.Words)
		kind := KindUnpatchedTransfer
		if block == "" && addr < vecEnd {
			kind = KindUnpatchedVector
		}

		switch oin.Op {
		case avr.OpJMP, avr.OpCALL:
			st.TransfersChecked++
			want := remap(oin.Target * 2)
			if got := nin.Target * 2; got != want {
				findings = append(findings, Finding{
					Kind: kind, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s 0x%X should be patched to 0x%X, found 0x%X",
						oin.Op, oin.Target*2, want, got),
				})
			} else if avr.DecodeAt(rnd, want/2).Op == avr.OpInvalid {
				findings = append(findings, Finding{
					Kind: KindDanglingEdge, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("patched %s target 0x%X does not decode", oin.Op, want),
				})
			}
		case avr.OpRJMP, avr.OpRCALL, avr.OpBRBS, avr.OpBRBC:
			st.TransfersChecked++
			oldAbs := uint32(int64(oldW+pc)+1+int64(oin.K)) * 2
			newAbs := uint32(int64(newW+pc)+1+int64(nin.K)) * 2
			if want := remap(oldAbs); newAbs != want {
				findings = append(findings, Finding{
					Kind: kind, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s to 0x%X should reach 0x%X after relocation, found 0x%X",
						oin.Op, oldAbs, want, newAbs),
				})
			}
		case avr.OpSPM:
			findings = append(findings, Finding{
				Kind: KindUnverifiableSPM, Severity: SevError, Addr: addr, Block: block,
				Detail: "spm inside verified region: self-modifying code cannot be proven patch-complete",
			})
		default:
			// Everything else must be byte-identical.
			same := wordAt(orig, oldW+pc) == wordAt(rnd, newW+pc)
			if oin.Words == 2 {
				same = same && wordAt(orig, oldW+pc+1) == wordAt(rnd, newW+pc+1)
			}
			if !same {
				findings = append(findings, Finding{
					Kind: KindOpcodeMismatch, Severity: SevError, Addr: addr, Block: block,
					Detail: fmt.Sprintf("%s operands changed; streams diverged, diff truncated here", oin.Op),
				})
				return findings
			}
		}
		pc += uint32(oin.Words)
	}
	return findings
}

// Fault-injection errors.
var (
	// ErrNoSuchPatch is returned by RevertPatch when fewer patched
	// sites exist than the requested index.
	ErrNoSuchPatch = errors.New("staticverify: no patched site with that index")
)

// RevertPatch undoes the n-th (0-based) patched direct transfer in a
// randomization outcome, writing the original encoding back into
// r.Image. It exists to inject exactly the defect the verifier must
// catch — a rewriter that missed one site — for tests, demos and CI
// canaries. It returns the byte address of the reverted instruction in
// the randomized image.
func RevertPatch(pre *core.Preprocessed, r *core.Randomized, n int) (uint32, error) {
	type region struct{ oldStart, newStart, size uint32 }
	regions := []region{{0, 0, pre.RegionStart}}
	for i, b := range pre.Blocks {
		regions = append(regions, region{b.Start, r.NewStart[i], b.Size})
	}
	seen := 0
	for _, reg := range regions {
		oldW, newW := reg.oldStart/2, reg.newStart/2
		for pc := uint32(0); pc < reg.size/2; {
			oin := avr.DecodeAt(pre.Image, oldW+pc)
			if oin.Op == avr.OpInvalid {
				break
			}
			if oin.IsCallOrJump() || oin.Op == avr.OpBRBS || oin.Op == avr.OpBRBC {
				patched := false
				for w := uint32(0); w < uint32(oin.Words); w++ {
					if wordAt(pre.Image, oldW+pc+w) != wordAt(r.Image, newW+pc+w) {
						patched = true
					}
				}
				if patched {
					if seen == n {
						for w := uint32(0); w < uint32(oin.Words); w++ {
							copy(r.Image[(newW+pc+w)*2:], pre.Image[(oldW+pc+w)*2:(oldW+pc+w)*2+2])
						}
						return (newW + pc) * 2, nil
					}
					seen++
				}
			}
			pc += uint32(oin.Words)
		}
	}
	return 0, ErrNoSuchPatch
}

// RevertPointerPatch undoes the n-th rewritten data-section function
// pointer, returning its flash byte offset. Like RevertPatch, it is a
// fault injector for exercising the verifier.
func RevertPointerPatch(pre *core.Preprocessed, r *core.Randomized, n int) (uint32, error) {
	seen := 0
	for _, off := range pre.PtrOffsets {
		if pre.Image[off] == r.Image[off] && pre.Image[off+1] == r.Image[off+1] {
			continue
		}
		if seen == n {
			r.Image[off] = pre.Image[off]
			r.Image[off+1] = pre.Image[off+1]
			return off, nil
		}
		seen++
	}
	return 0, ErrNoSuchPatch
}
