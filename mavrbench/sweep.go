package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mavr/internal/board"
	"mavr/internal/firmware"
	"mavr/internal/scenario"
	"mavr/internal/scengen"
)

// The sweep measures a fixed panel of consecutive scengen seeds, so
// that seeds/s compares like with like: one seed's scenario costs
// between 0.3x and 3x the mean, and a run's worth of arbitrary seeds
// would move seeds/s more than any change worth measuring. The
// benchmark seed rotates the panel: it picks the seed the run starts
// at, and so the order and the part of the panel a run does not reach.
// Benchmark seeds from heldOutFrom on sweep the held-out panel instead,
// which is kept for confirming a claim made on the working panel.
const (
	sweepPanel  = 128
	workingBase = 1_000_000
	heldOutBase = 9_000_000
	heldOutFrom = 1000
)

// sweepSeeds is the run's plan: the panel in order from a start chosen
// by the benchmark seed; a run sweeps it cyclically.
func sweepSeeds(seed int64) (base int64, seeds []int64) {
	base = workingBase
	if seed >= heldOutFrom {
		base = heldOutBase
	}
	start := ((seed*97)%sweepPanel + sweepPanel) % sweepPanel
	for i := int64(0); i < sweepPanel; i++ {
		seeds = append(seeds, base+(start+i)%sweepPanel)
	}
	return base, seeds
}

// tracedSweepSeeds is the fixed window the traced run drives, so that
// its counts repeat exactly for one seed.
const tracedSweepSeeds = 10

// sweepPlan is the ordered list of scengen seeds a run sweeps.
type sweepPlan struct {
	seeds []int64
	specs []scenario.Spec
}

// planSweep generates the spec of every seed of the run's plan, builds
// each firmware profile they use once and warms up.
func planSweep(root string, seed int64) (*sweepPlan, error) {
	p := &sweepPlan{}
	apps := map[string]bool{}
	_, seeds := sweepSeeds(seed)
	for _, seed := range seeds {
		spec := scengen.Generate(seed)
		p.seeds = append(p.seeds, seed)
		p.specs = append(p.specs, spec)
		app := spec.Effective().App
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
	warm := scenario.Builtin()[0]
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "golden", warm.Name+".jsonl"))
	if err != nil {
		return nil, err
	}
	if err := warmUp(warm, string(golden)); err != nil {
		return nil, err
	}
	return p, nil
}

// sweepSeed is one op: run the generated spec and check every
// invariant on its trace.
func sweepSeed(spec scenario.Spec, inject bool) (string, []*scenario.Divergence, error) {
	res, err := scenario.Run(spec)
	if err != nil {
		return "", nil, err
	}
	recs := res.Records
	if inject {
		// Drop the verdict record: trace-well-formed must catch it.
		recs = recs[:len(recs)-1]
	}
	return scenario.TraceDigest(recs), scengen.CheckAll(spec, recs), nil
}

// sweepLoop sweeps the plan cyclically, one seed at a time like
// mavr-scengen run, until the budget is spent (at least one seed),
// sampling ref between seeds. Each seed is one checked op. It returns
// per-seed wall times and digests in sweep order.
func sweepLoop(plan *sweepPlan, cfg config, o *outcome, budget time.Duration, ref *speedRef) (times []float64, digests []string, simSecs float64, err error) {
	deadline := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed, spec := plan.seeds[i%len(plan.seeds)], plan.specs[i%len(plan.specs)]
		ref.every()
		t0 := time.Now()
		digest, vs, err := sweepSeed(spec, cfg.inject == "violate-invariant" && i == 0)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("seed %d: %w", seed, err)
		}
		times = append(times, time.Since(t0).Seconds())
		digests = append(digests, fmt.Sprintf("%d:%s", seed, digest))
		simSecs += spec.Effective().Run.Seconds()
		o.check(fmt.Sprintf("seed %d", seed), violations(vs))
	}
	return times, digests, simSecs, nil
}

// violations is one failure reason per violated invariant.
func violations(vs []*scenario.Divergence) []string {
	var out []string
	for _, d := range vs {
		out = append(out, fmt.Sprintf("invariant violated: %v", d))
	}
	return out
}

// runSweep sweeps consecutive generated scenarios. One op is one seed.
func runSweep(cfg config) (*outcome, error) {
	var ref *speedRef
	if !cfg.trace {
		ref = newSpeedRef()
	}
	plan, setups, err := repeatSetup(func() (*sweepPlan, error) {
		return planSweep(cfg.root, cfg.seed)
	}, func(*sweepPlan) {}, ref)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	budget := cfg.seconds
	if cfg.trace {
		budget /= 2
	}
	w := startWindow()
	times, digests, simSecs, err := sweepLoop(plan, cfg, o, budget, ref)
	if err != nil {
		return nil, err
	}
	s := w.stop()
	if ref != nil {
		s.exclude(ref)
	}
	base, _ := sweepSeeds(cfg.seed)
	o.details["panel_base"] = base
	o.details["panel_seeds"] = sweepPanel
	o.details["digests"] = digests
	if !cfg.trace {
		setEndToEnd(o, s, float64(len(times)), setups, ref)
		o.details["seeds_per_s"] = o.metrics["ops_per_s"].Value
		o.details["sim_rtf"] = simSecs / s.wall.Seconds() / ref.factor()
		o.details["cpu_ms_per_sim_s"] = ms(s.cpu) / simSecs * ref.factor()
		return o, nil
	}
	// The tracing cost compares the same seeds: the traced window against
	// its untraced replays above.
	var untracedWall float64
	for _, t := range times[:min(len(times), tracedSweepSeeds)] {
		untracedWall += t
	}
	untracedOpsPerS := float64(min(len(times), tracedSweepSeeds)) / untracedWall

	// Traced half: drive a fixed window of seeds through the layers'
	// public calls. Each driven trace must match scenario.Run's digest.
	tr := newTracer()
	scratch := board.NewAppProcessor()
	var c layerCounts
	var first layerCounts
	var violated int
	var tracedWall time.Duration
	for i := 0; i < tracedSweepSeeds; i++ {
		var one layerCounts
		t0 := time.Now()
		tr.begin("scengen.generate")
		spec := scengen.Generate(plan.seeds[i])
		tr.end()
		d, err := drive(spec, tr, &one)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", plan.seeds[i], err)
		}
		tr.begin("scenario.encode")
		digest := scenario.TraceDigest(d.records)
		tr.end()
		tr.begin("scengen.check")
		vs := scengen.CheckAll(spec, d.records)
		tr.end()
		tracedWall += time.Since(t0)
		violated += len(vs)
		reasons := violations(vs)
		if i < len(digests) && digests[i] != fmt.Sprintf("%d:%s", plan.seeds[i], digest) {
			reasons = append(reasons, fmt.Sprintf("driven trace digest %s differs from scenario.Run (%s)", digest, digests[i]))
		}
		if err := retime(d.epochs, scratch, tr); err != nil {
			reasons = append(reasons, err.Error())
		}
		if err := vsaEpochs(d.epochs, tr, &one); err != nil {
			reasons = append(reasons, err.Error())
		}
		o.check(fmt.Sprintf("driven seed %d", plan.seeds[i]), reasons)
		if i == 0 {
			first = one
		}
		c.add(one)
	}
	// Drive the first seed once more: its counts must repeat exactly.
	var again layerCounts
	if _, err := drive(scengen.Generate(plan.seeds[0]), nil, &again); err != nil {
		return nil, err
	}
	// vsa counts come from vsaEpochs, which the repeat skips.
	again.vsaSites, again.vsaResolved = first.vsaSites, first.vsaResolved
	again.fastVerifies, again.cachedVerifies = first.fastVerifies, first.cachedVerifies
	exact := sameCounts(first, again)

	vals := map[string]float64{}
	countLayers(vals, c, tr, 1)
	vals["scengen.generate_ms"] = tr.meanMS("scengen.generate")
	vals["scengen.check_ms"] = tr.meanMS("scengen.check")
	vals["scengen.violations"] = float64(violated)
	vals["trace.untraced_ops_per_s"] = untracedOpsPerS
	vals["trace.traced_ops_per_s"] = float64(tracedSweepSeeds) / tracedWall.Seconds()
	vals["trace.overhead_ratio"] = untracedOpsPerS/vals["trace.traced_ops_per_s"] - 1
	vals["counts.exact"] = b2f(exact)
	setLayers(o, vals)
	o.details["traced_seeds"] = tracedSweepSeeds
	o.details["counts_traced_window"] = c.exact()
	o.details["spans"] = tr.table()
	return o, nil
}
