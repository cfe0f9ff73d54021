package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mavr/internal/board"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/scenario"
	"mavr/internal/staticverify"
)

// goldenSet is the golden-replay input: the built-in specs and their
// golden traces.
type goldenSet struct {
	specs   []scenario.Spec
	goldens []string
	simSecs float64 // simulated flight per pass
}

func loadGolden(cfg config) (*goldenSet, error) {
	// The specs are fixed; the benchmark seed only rotates their order
	// within a pass.
	g := &goldenSet{specs: scenario.Builtin()}
	apps := map[string]bool{}
	for _, s := range g.specs {
		b, err := os.ReadFile(filepath.Join(cfg.root, "testdata", "golden", s.Name+".jsonl"))
		if err != nil {
			return nil, err
		}
		g.goldens = append(g.goldens, string(b))
		g.simSecs += s.Effective().Run.Seconds()
		app := s.Effective().App
		if !apps[app] {
			apps[app] = true
			a, err := appSpec(app)
			if err != nil {
				return nil, err
			}
			if _, err := firmware.Generate(a, firmware.ModeMAVR); err != nil {
				return nil, err
			}
		}
	}
	if err := warmUp(g.specs[0], g.goldens[0]); err != nil {
		return nil, err
	}
	n := int64(len(g.specs))
	start := int((cfg.seed%n + n) % n)
	g.specs = append(g.specs[start:], g.specs[:start]...)
	g.goldens = append(g.goldens[start:], g.goldens[:start]...)
	if cfg.inject == "corrupt-golden" {
		// Damage one line of one golden: the replay must count it.
		g.goldens[0] = strings.Replace(g.goldens[0], `"kind":"start"`, `"kind":"st4rt"`, 1)
	}
	return g, nil
}

// runGolden replays every built-in scenario in whole passes and checks
// each trace against its golden. One op is one simulated second.
func runGolden(cfg config) (*outcome, error) {
	var ref *speedRef
	if !cfg.trace {
		ref = newSpeedRef()
	}
	g, setups, err := repeatSetup(func() (*goldenSet, error) { return loadGolden(cfg) }, func(*goldenSet) {}, ref)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	if !cfg.trace {
		w := startWindow()
		passes, _, err := goldenPasses(g, o, cfg.seconds, ref)
		if err != nil {
			return nil, err
		}
		s := w.stop()
		s.exclude(ref)
		setEndToEnd(o, s, g.simSecs*float64(passes), setups, ref)
		o.details["passes"] = passes
		o.details["sim_rtf"] = o.metrics["ops_per_s"].Value
		o.details["cpu_ms_per_sim_s"] = o.metrics["cpu_ms_per_op"].Value
		return o, nil
	}

	// Traced run: an untraced half, then traced passes driven through
	// the layers' public calls; the gap between the two is the cost of
	// tracing.
	passes, replayWall, err := goldenPasses(g, o, cfg.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	untracedOpsPerS := g.simSecs * float64(passes) / replayWall.Seconds()

	tr := newTracer()
	scratch := board.NewAppProcessor()
	var first layerCounts
	exact := true
	var tracedWall time.Duration
	tracedPasses := 0
	deadline := time.Now().Add(cfg.seconds / 2)
	for tracedPasses < 2 || time.Now().Before(deadline) {
		var c layerCounts
		for i, spec := range g.specs {
			t0 := time.Now()
			d, err := drive(spec, tr, &c)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			tr.begin("scenario.encode")
			text := scenario.TraceString(d.records)
			tr.end()
			tr.begin("scenario.compare")
			div := scenario.Compare(g.goldens[i], text)
			tr.end()
			tracedWall += time.Since(t0)
			var reasons []string
			if div != nil {
				reasons = append(reasons, fmt.Sprintf("driven replay diverges from golden: %v", div))
			}
			if err := retime(d.epochs, scratch, tr); err != nil {
				reasons = append(reasons, err.Error())
			}
			if err := vsaEpochs(d.epochs, tr, &c); err != nil {
				reasons = append(reasons, err.Error())
			}
			o.check(spec.Name, reasons)
		}
		if tracedPasses == 0 {
			first = c
		} else if !sameCounts(first, c) {
			exact = false
		}
		tracedPasses++
	}
	tracedOpsPerS := g.simSecs * float64(tracedPasses) / tracedWall.Seconds()

	vals := map[string]float64{}
	countLayers(vals, first, tr, tracedPasses)
	vals["trace.untraced_ops_per_s"] = untracedOpsPerS
	vals["trace.traced_ops_per_s"] = tracedOpsPerS
	vals["trace.overhead_ratio"] = untracedOpsPerS/tracedOpsPerS - 1
	vals["counts.exact"] = b2f(exact)
	setLayers(o, vals)
	o.details["traced_passes"] = tracedPasses
	o.details["untraced_passes"] = passes
	o.details["counts_per_pass"] = first.exact()
	o.details["spans"] = tr.table()
	return o, nil
}

// goldenPasses replays whole passes with scenario.Run until d has
// elapsed (at least one pass), sampling ref between replays. It returns
// the passes made and the time spent replaying.
func goldenPasses(g *goldenSet, o *outcome, d time.Duration, ref *speedRef) (passes int, replayWall time.Duration, err error) {
	deadline := time.Now().Add(d)
	for passes == 0 || time.Now().Before(deadline) {
		for i, spec := range g.specs {
			ref.every()
			t0 := time.Now()
			res, err := scenario.Run(spec)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: %w", spec.Name, err)
			}
			div := scenario.Compare(g.goldens[i], res.Trace())
			replayWall += time.Since(t0)
			var reasons []string
			if div != nil {
				reasons = append(reasons, fmt.Sprintf("trace diverges from golden: %v", div))
			}
			o.check(spec.Name, reasons)
		}
		passes++
	}
	return passes, replayWall, nil
}

// vsaEpochs builds one cached verifier with value-set analysis per
// scenario base and re-verifies each epoch through it: the armory's
// path, exercised on the master's own images.
func vsaEpochs(epochs []epoch, tr *tracer, c *layerCounts) error {
	if len(epochs) == 0 {
		return nil
	}
	opts := staticverify.DefaultOptions()
	opts.Gadgets = false
	opts.VSA = true
	tr.begin("staticverify.base")
	base := staticverify.NewBase(epochs[0].pre, opts)
	sites, resolved, _ := base.VSASummary()
	tr.end()
	c.vsaSites += sites
	c.vsaResolved += resolved
	for i, e := range epochs {
		r, err := core.Randomize(e.pre, e.perm)
		if err != nil {
			return fmt.Errorf("epoch %d: randomize: %w", i, err)
		}
		tr.begin("staticverify.cached_verify")
		rep := base.Verify(r)
		tr.end()
		if !rep.OK() {
			return fmt.Errorf("epoch %d: cached verification rejects the master's image: %d errors", i, rep.Errors())
		}
	}
	st := base.Stats()
	c.fastVerifies += int(st.FastVerifies)
	c.cachedVerifies += int(st.FastVerifies + st.FallbackVerifies)
	return nil
}

// warmUp replays one scenario before timing starts, so that the heap
// and the emulator's first tables are in place.
func warmUp(spec scenario.Spec, golden string) error {
	res, err := scenario.Run(spec)
	if err != nil {
		return fmt.Errorf("warm-up %s: %w", spec.Name, err)
	}
	if div := scenario.Compare(golden, res.Trace()); div != nil {
		return fmt.Errorf("warm-up %s diverges from golden: %v", spec.Name, div)
	}
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
