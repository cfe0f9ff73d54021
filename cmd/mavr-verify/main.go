// mavr-verify statically verifies a MAVR randomization outcome: it
// recovers a conservative CFG from the randomized image, diffs it
// against the original to prove every direct transfer, vector entry
// and tabled function pointer was patched onto a relocated function
// entry, and audits which ret-gadgets survive randomization unchanged.
//
// Usage:
//
//	mavr-verify [-app testapp] [-elf in.elf] [-seed 1]        pipeline mode
//	mavr-verify -elf orig.elf -randomized rnd.elf             compare mode
//
// Pipeline mode runs preprocess + randomize internally and verifies the
// result; compare mode verifies an already-randomized ELF (as written
// by mavr-randomize -out-elf) against its original. -skip-patch and
// -skip-pointer deliberately revert one rewrite before verifying — a
// fault injector that demonstrates the defect the verifier exists to
// catch.
//
// Exit status is nonzero when any error-severity finding is reported.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"mavr/internal/core"
	"mavr/internal/elfobj"
	"mavr/internal/firmware"
	"mavr/internal/staticverify"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(code)
}

func run() (int, error) {
	app := flag.String("app", "testapp", "built-in application profile to generate")
	elfPath := flag.String("elf", "", "verify an ELF file instead of a generated profile")
	rndPath := flag.String("randomized", "", "already-randomized ELF to verify against the original (compare mode)")
	seed := flag.Int64("seed", 1, "permutation seed (pipeline mode)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	noGadgets := flag.Bool("no-gadgets", false, "skip the residual gadget audit")
	vsaOn := flag.Bool("vsa", false, "run value-set analysis: resolve indirect-transfer target sets and prove per-function stack discipline")
	skipPatch := flag.Int("skip-patch", -1, "fault injection: revert the n-th patched transfer before verifying")
	skipPtr := flag.Int("skip-pointer", -1, "fault injection: revert the n-th patched function pointer before verifying")
	flag.Parse()

	elf, err := firmware.LoadELF(*elfPath, *app)
	if err != nil {
		return 1, err
	}
	pre, err := core.Preprocess(elf)
	if err != nil {
		return 1, err
	}

	var r *core.Randomized
	if *rndPath != "" {
		raw, err := os.ReadFile(*rndPath)
		if err != nil {
			return 1, err
		}
		rf, err := elfobj.Parse(raw)
		if err != nil {
			return 1, err
		}
		r, err = reconstruct(pre, rf)
		if err != nil {
			return 1, err
		}
	} else {
		r, err = core.Randomize(pre, core.Permutation(rand.New(rand.NewSource(*seed)), len(pre.Blocks)))
		if err != nil {
			return 1, err
		}
	}

	if *skipPatch >= 0 {
		addr, err := staticverify.RevertPatch(pre, r, *skipPatch)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "fault injection: reverted transfer patch at 0x%X\n", addr)
	}
	if *skipPtr >= 0 {
		off, err := staticverify.RevertPointerPatch(pre, r, *skipPtr)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "fault injection: reverted pointer patch at 0x%X\n", off)
	}

	opts := staticverify.DefaultOptions()
	opts.Gadgets = !*noGadgets
	opts.VSA = *vsaOn
	rep := staticverify.Verify(pre, r, opts)

	if *jsonOut {
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return 1, err
		}
	} else if err := rep.WriteText(os.Stdout); err != nil {
		return 1, err
	}
	if !rep.OK() {
		return 2, nil
	}
	return 0, nil
}

// reconstruct rebuilds the Randomized record a prior mavr-randomize run
// produced, by matching the randomized ELF's relocated function symbols
// back to the original block list by name.
func reconstruct(pre *core.Preprocessed, rf *elfobj.File) (*core.Randomized, error) {
	if len(rf.Text) != len(pre.Image) {
		return nil, fmt.Errorf("randomized image is %d bytes, original %d", len(rf.Text), len(pre.Image))
	}
	byName := make(map[string]uint32)
	for _, s := range rf.FuncSymbols() {
		byName[s.Name] = s.Value
	}
	r := &core.Randomized{
		Image:    rf.Text,
		NewStart: make([]uint32, len(pre.Blocks)),
		Perm:     make([]int, len(pre.Blocks)),
	}
	for i, b := range pre.Blocks {
		v, ok := byName[b.Name]
		if !ok {
			return nil, fmt.Errorf("randomized ELF has no symbol for function %q", b.Name)
		}
		r.NewStart[i] = v
	}
	// Recover the permutation from the new layout ordering: the i-th
	// slot (by address) holds the block whose NewStart ranks i-th.
	order := make([]int, len(pre.Blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return r.NewStart[order[a]] < r.NewStart[order[b]] })
	for slot, blk := range order {
		r.Perm[slot] = blk
	}
	return r, nil
}
