package main

import (
	"bufio"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mavr/internal/firmware"
	"mavr/internal/netlink"
)

// silenceThreshold is the ground station's vehicle-silence alarm, as in
// the scenarios.
const silenceThreshold = 200 * time.Millisecond

// fleetRig is one free-running MAVR fleet with one client per vehicle.
type fleetRig struct {
	fleet   *netlink.Fleet
	clients []*netlink.Client
}

// startFleet builds the firmware, starts nproc protected vehicles with
// the given master seed and waits until every client has decoded a
// datagram.
func startFleet(cfg config, masterSeed int64) (*fleetRig, error) {
	img, err := firmware.Generate(firmware.TestApp(), firmware.ModeMAVR)
	if err != nil {
		return nil, err
	}
	f, err := netlink.NewFleet(netlink.FleetConfig{
		Vehicles:   cfg.procs,
		Firmware:   img,
		Protected:  true,
		MasterSeed: masterSeed,
	})
	if err != nil {
		return nil, err
	}
	if err := f.Start(); err != nil {
		_ = f.Close()
		return nil, err
	}
	rig := &fleetRig{fleet: f}
	for i := 0; i < cfg.procs; i++ {
		c, err := netlink.DialClient(f.Addr().String(), netlink.ClientConfig{SysID: byte(i + 1)})
		if err != nil {
			_ = rig.stop()
			return nil, err
		}
		rig.clients = append(rig.clients, c)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, c := range rig.clients {
		for c.Stats().DatagramsIn == 0 {
			if time.Now().After(deadline) {
				_ = rig.stop()
				return nil, fmt.Errorf("no datagram reached the clients within 30s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return rig, nil
}

// stop closes the clients, then the fleet, and waits for both.
func (r *fleetRig) stop() error {
	for _, c := range r.clients {
		_ = c.Close() // a client's close error only reports its own socket
	}
	return r.fleet.Close()
}

// fleetSample is one observation of the fleet's progress.
type fleetSample struct {
	sim       []time.Duration // per vehicle
	datagrams uint64          // decoded by all clients
}

func (r *fleetRig) sample() fleetSample {
	var s fleetSample
	for _, v := range r.fleet.Vehicles() {
		s.sim = append(s.sim, v.Snapshot().SimTime)
	}
	for _, c := range r.clients {
		s.datagrams += c.Stats().DatagramsIn
	}
	return s
}

// watch polls the fleet, as a ground-station dashboard would, for d.
func (r *fleetRig) watch(d time.Duration, tr *tracer) (first, last fleetSample) {
	first = r.sample()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		tr.begin("netlink.snapshot")
		r.sample()
		tr.end()
	}
	return first, r.sample()
}

// simSeconds is the simulated flight all vehicles made between samples.
func simSeconds(a, b fleetSample) float64 {
	var s float64
	for i := range a.sim {
		s += (b.sim[i] - a.sim[i]).Seconds()
	}
	return s
}

// fleetSegments is how many fleets a run measures in turn, each for
// an equal share of the run. The speed of a free-running fleet differs
// from one master seed to the next by more than within one fleet's
// life, so every run measures the same panel of master seeds
// (fleetSeed): one long segment, or seeds that change with the
// benchmark seed, would measure the fleet rather than the program.
const fleetSegments = 8

// fleetSeed is the master seed of the k-th fleet of a run: the panel
// 1..fleetSegments, from a start the benchmark seed picks.
func fleetSeed(seed int64, k int) int64 {
	const n = fleetSegments
	return 1 + ((seed%n+n)%n+int64(k))%n
}

// fleetPhase accumulates the measured windows of one kind: untraced or
// traced.
type fleetPhase struct {
	span      span
	ops       float64
	datagrams float64
	rates     []float64 // unscaled ops per second of each window
}

// watch measures one window of d on r.
func (p *fleetPhase) watch(r *fleetRig, d time.Duration, tr *tracer) {
	w := startWindow()
	a, b := r.watch(d, tr)
	sp := w.stop()
	p.span.add(sp)
	p.ops += simSeconds(a, b)
	p.rates = append(p.rates, simSeconds(a, b)/sp.wall.Seconds())
	p.datagrams += float64(b.datagrams - a.datagrams)
}

// fleetTotals accumulates the measured segments.
type fleetTotals struct {
	plain    fleetPhase
	traced   fleetPhase
	vals     map[string]float64 // per-layer counts
	link     map[string]float64 // fleet metrics, summed over segments
	cl       netlink.LinkStatsSnapshot
	fleetCPU time.Duration
}

// measure watches one started fleet for d, checks it, stops it and
// folds its counts into t. With a tracer, the fleet is watched half
// untraced and half traced, the order alternating with the segment
// index k, so that the cost of tracing is measured on the same fleets.
// cpu0 is the process CPU time when the fleet was started.
func (r *fleetRig) measure(k int, d time.Duration, tr *tracer, o *outcome, t *fleetTotals, cpu0 time.Duration) error {
	switch {
	case tr == nil:
		t.plain.watch(r, d, nil)
	case k%2 == 0:
		t.plain.watch(r, d/2, nil)
		t.traced.watch(r, d/2, tr)
	default:
		t.traced.watch(r, d/2, tr)
		t.plain.watch(r, d/2, nil)
	}

	// Correctness: one session per vehicle, and every clean link free
	// of garbage, frame errors and compromise evidence.
	sessions := r.fleet.Sessions()
	for name, v := range parseMetrics(r.fleet.MetricsText()) {
		t.link[name] += v
	}
	for i, c := range r.clients {
		mon := c.Monitor()
		st := c.Stats()
		t.vals["mavlink.frames"] += float64(mon.Heartbeats + mon.RawIMUs + mon.ParamEchoes)
		t.vals["mavlink.frame_errors"] += float64(mon.HeartbeatErrors)
		t.cl.SeqGaps += st.SeqGaps
		t.cl.QueueDropped += st.QueueDropped
		t.cl.Rehellos += st.Rehellos
		t.cl.CRCRejects += st.CRCRejects
		t.cl.CorruptDatagrams += st.CorruptDatagrams
		var reasons []string
		if mon.Garbage > 0 || mon.HeartbeatErrors > 0 {
			reasons = append(reasons, fmt.Sprintf("%d garbage bytes, %d frame errors on a clean link", mon.Garbage, mon.HeartbeatErrors))
		}
		if mon.CompromiseDetected(silenceThreshold) {
			reasons = append(reasons, "compromise detected on a clean link")
		}
		o.check(fmt.Sprintf("vehicle %d", i+1), reasons)
	}
	var reasons []string
	if sessions != len(r.clients) {
		reasons = append(reasons, fmt.Sprintf("%d sessions for %d vehicles", sessions, len(r.clients)))
	}
	if n := r.fleet.DegradedVehicles(); n > 0 {
		reasons = append(reasons, fmt.Sprintf("%d vehicles degraded", n))
	}
	o.check(fmt.Sprintf("fleet %d", k), reasons)
	if err := r.stop(); err != nil {
		return err
	}
	t.fleetCPU += cpuTime() - cpu0

	// The boards belong to the benchmark again once the fleet is closed.
	for _, v := range r.fleet.Vehicles() {
		sys := v.Sys()
		bs := sys.App.CPU.TranslationStats()
		t.vals["avr.cycles"] += float64(sys.App.CPU.Cycles)
		t.vals["avr.block_execs"] += float64(bs.Execs)
		t.vals["avr.interp_steps"] += float64(bs.InterpSteps)
		t.vals["avr.translated"] += float64(bs.Translated)
		t.vals["avr.invalidated"] += float64(bs.Invalidated)
		t.vals["avr.bails"] += float64(bs.Bails)
		if sys.Master != nil {
			mst := sys.Master.Stats()
			t.vals["board.randomizations"] += float64(mst.Randomizations)
			t.vals["board.verify_rejections"] += float64(mst.VerifyRejections)
		}
		t.vals["board.reflashes"] += float64(len(sys.Reflashes()))
	}
	return nil
}

// segments measures fleetSegments fleets for d each; the first is the
// one set-up left running. After each fleet has stopped it samples ref
// (if not nil) five times.
func segments(cfg config, first *fleetRig, cpu0 time.Duration, d time.Duration, tr *tracer, ref *speedRef, o *outcome) (*fleetTotals, error) {
	t := &fleetTotals{vals: map[string]float64{}, link: map[string]float64{}}
	for k := 0; k < fleetSegments; k++ {
		rig := first
		if k > 0 {
			cpu0 = cpuTime()
			var err error
			if rig, err = startFleet(cfg, fleetSeed(cfg.seed, k)); err != nil {
				return nil, err
			}
		}
		if err := rig.measure(k, d, tr, o, t, cpu0); err != nil {
			return nil, err
		}
		if ref != nil {
			// Collect the stopped fleet's heap first, so that the
			// collector does not run beside the reference.
			runtime.GC()
			ref.sample(5)
		}
	}
	return t, nil
}

// runFleet watches free-running fleets. One op is one simulated
// vehicle-second.
func runFleet(cfg config) (*outcome, error) {
	var cpu0 time.Duration // process CPU time when the kept fleet started
	var stopErr error
	var ref *speedRef
	if !cfg.trace {
		ref = newSpeedRef()
	}
	rig, setups, err := repeatSetup(func() (*fleetRig, error) {
		cpu0 = cpuTime()
		return startFleet(cfg, fleetSeed(cfg.seed, 0))
	}, func(r *fleetRig) {
		if err := r.stop(); err != nil && stopErr == nil {
			stopErr = err
		}
	}, ref)
	if err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	t, err := segments(cfg, rig, cpu0, cfg.seconds/fleetSegments, tr, ref, o)
	if err != nil {
		return nil, err
	}
	p := t.plain
	dgPerS := p.datagrams / p.span.wall.Seconds()
	o.details["vehicles"] = cfg.procs
	o.details["segments"] = fleetSegments
	o.details["segment_raw_ops_per_s"] = p.rates
	if !cfg.trace {
		setEndToEnd(o, p.span, p.ops, setups, ref)
		o.details["sim_rtf"] = o.metrics["ops_per_s"].Value
		o.details["datagrams_per_s"] = dgPerS / ref.factor()
		o.details["cpu_ms_per_sim_s"] = o.metrics["cpu_ms_per_op"].Value
		return o, nil
	}

	vals := t.vals
	vals["avr.bail_ratio"] = ratio(vals["avr.bails"], vals["avr.block_execs"])
	delete(vals, "avr.bails")
	// The vehicles run on the fleet's own goroutines: charge the
	// process's CPU time over the fleets' lives to the cycles executed.
	vals["avr.ns_per_cycle"] = ratio(float64(t.fleetCPU), vals["avr.cycles"])
	link := t.link
	vals["netlink.datagrams_out"] = link["datagrams_out"]
	vals["netlink.datagrams_per_s"] = dgPerS
	vals["netlink.records_per_datagram"] = ratio(link["records_out"], link["datagrams_out"])
	vals["netlink.bytes_per_datagram"] = ratio(link["bytes_out"], link["datagrams_out"])
	vals["netlink.seq_gaps"] = float64(t.cl.SeqGaps)
	vals["netlink.queue_dropped"] = link["fleet.send_queue_dropped"] + float64(t.cl.QueueDropped)
	vals["netlink.rehellos"] = float64(t.cl.Rehellos)
	vals["netlink.bad_datagrams"] = link["fleet.bad_datagrams"] + link["fleet.corrupt_datagrams"] +
		float64(t.cl.CRCRejects+t.cl.CorruptDatagrams)
	// Tracing reaches only the benchmark's own snapshot polling: the
	// vehicles run untraced on the fleet's goroutines in both halves.
	vals["trace.untraced_ops_per_s"] = p.ops / p.span.wall.Seconds()
	vals["trace.traced_ops_per_s"] = t.traced.ops / t.traced.span.wall.Seconds()
	vals["trace.overhead_ratio"] = vals["trace.untraced_ops_per_s"]/vals["trace.traced_ops_per_s"] - 1
	setLayers(o, vals)
	o.details["spans"] = tr.table()
	return o, nil
}

// parseMetrics sums the fleet's per-link counters by suffix and keeps
// the fleet-wide ones by full name.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		if strings.HasPrefix(name, "link.") {
			out[name[strings.LastIndex(name, ".")+1:]] += v
		} else {
			out[name] = v
		}
	}
	return out
}
