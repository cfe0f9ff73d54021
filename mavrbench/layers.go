package main

// perLayer lists every per-layer metric with its unit, in the order of
// BENCHMARK.json. Every traced run reports all of them; a layer a
// workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"avr.cycles", "count"},
	{"avr.block_execs", "count"},
	{"avr.interp_steps", "count"},
	{"avr.translated", "count"},
	{"avr.invalidated", "count"},
	{"avr.bail_ratio", "ratio"},
	{"avr.ns_per_cycle", "ns"},
	{"board.boot_ms", "ms"},
	{"board.run_ms", "ms"},
	{"board.master_stage_ms", "ms"},
	{"board.randomizations", "count"},
	{"board.reflashes", "count"},
	{"board.verify_rejections", "count"},
	{"core.randomize_ms", "ms"},
	{"staticverify.verify_ms", "ms"},
	{"staticverify.base_ms", "ms"},
	{"staticverify.cached_verify_ms", "ms"},
	{"staticverify.fast_verify_ratio", "ratio"},
	{"vsa.sites", "count"},
	{"vsa.resolved_sites", "count"},
	{"attack.analyze_ms", "ms"},
	{"attack.synthesize_ms", "ms"},
	{"attack.synth_found_ratio", "ratio"},
	{"firmware.generate_ms", "ms"},
	{"gcs.feed_ns_per_byte", "ns"},
	{"gcs.bytes_fed", "count"},
	{"mavlink.frames", "count"},
	{"mavlink.frame_errors", "count"},
	{"netlink.datagrams_out", "count"},
	{"netlink.datagrams_per_s", "1/s"},
	{"netlink.records_per_datagram", "count"},
	{"netlink.bytes_per_datagram", "B"},
	{"netlink.seq_gaps", "count"},
	{"netlink.queue_dropped", "count"},
	{"netlink.rehellos", "count"},
	{"netlink.bad_datagrams", "count"},
	{"scenario.records", "count"},
	{"scenario.encode_ms", "ms"},
	{"scenario.compare_ms", "ms"},
	{"scengen.generate_ms", "ms"},
	{"scengen.check_ms", "ms"},
	{"scengen.violations", "count"},
	{"armory.service_ms", "ms"},
	{"armory.request_p50_ms", "ms"},
	{"armory.request_p90_ms", "ms"},
	{"armory.cache_hit_ratio", "ratio"},
	{"armory.reissue_ratio", "ratio"},
	{"armory.ledger_conflicts", "count"},
	{"armory.queue_high_water", "count"},
	{"trace.untraced_ops_per_s", "op/s"},
	{"trace.traced_ops_per_s", "op/s"},
	{"trace.overhead_ratio", "ratio"},
	{"counts.exact", "flag"},
	{"fail_ratio", "ratio"},
}

// setLayers reports every per-layer metric, taking values from vals and
// 0 for the layers this workload does not reach.
func setLayers(o *outcome, vals map[string]float64) {
	known := map[string]bool{}
	for _, m := range perLayer {
		known[m.name] = true
		o.set(m.name, vals[m.name], m.unit)
	}
	for name := range vals {
		if !known[name] {
			panic("mavrbench: per-layer metric " + name + " is not in the perLayer table")
		}
	}
}

// countLayers derives the per-layer values shared by the workloads that
// drive scenarios: golden-replay and scengen-sweep. c counts the work of
// one of the runs the tracer's spans cover.
func countLayers(vals map[string]float64, c layerCounts, tr *tracer, runs int) {
	for k, v := range c.exact() {
		if k == "attack.synth_found_count" {
			continue
		}
		vals[k] = v
	}
	vals["avr.bail_ratio"] = ratio(float64(c.bails), float64(c.blockExecs))
	vals["avr.ns_per_cycle"] = ratio(float64(tr.total("board.run"))/float64(runs), float64(c.avrCycles))
	vals["board.boot_ms"] = tr.meanMS("board.boot")
	vals["board.run_ms"] = tr.meanMS("board.run")
	vals["board.master_stage_ms"] = tr.meanMS("board.master_stage")
	vals["core.randomize_ms"] = tr.meanMS("core.randomize")
	vals["staticverify.verify_ms"] = tr.meanMS("staticverify.verify")
	vals["staticverify.base_ms"] = tr.meanMS("staticverify.base")
	vals["staticverify.cached_verify_ms"] = tr.meanMS("staticverify.cached_verify")
	vals["staticverify.fast_verify_ratio"] = ratio(float64(c.fastVerifies), float64(c.cachedVerifies))
	vals["attack.analyze_ms"] = tr.meanMS("attack.analyze")
	vals["attack.synthesize_ms"] = tr.meanMS("attack.synthesize")
	vals["attack.synth_found_ratio"] = ratio(float64(c.synthFound), float64(c.synthCalls))
	vals["firmware.generate_ms"] = tr.meanMS("firmware.generate")
	vals["gcs.feed_ns_per_byte"] = ratio(float64(tr.total("gcs.feed"))/float64(runs), float64(c.bytesFed))
	vals["netlink.bytes_per_datagram"] = ratio(float64(c.datagramBytes), float64(c.datagrams))
	if c.datagrams > 0 {
		vals["netlink.records_per_datagram"] = 1 // the replay link is record-aligned: one record per datagram
	}
	vals["scenario.encode_ms"] = tr.meanMS("scenario.encode")
	vals["scenario.compare_ms"] = tr.meanMS("scenario.compare")
}

// sameCounts reports whether two count sets are identical.
func sameCounts(a, b layerCounts) bool {
	ea, eb := a.exact(), b.exact()
	for k, v := range ea {
		if eb[k] != v {
			return false
		}
	}
	return true
}
