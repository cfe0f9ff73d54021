package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mavr/internal/armory"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/scenario"
	"mavr/internal/staticverify"
)

// The request stream is the one a protected netlink.Fleet sends through
// FleetConfig.Provision. Each vehicle's master asks for epochs 0, 1,
// 2, ... in order, one per randomization (Master.nextImage passes its
// randomization count), and each is a new ledger claim. That path asks
// for an epoch again only after a supervised restart
// (Fleet.restartVehicle): the vehicle's new master counts from 0, so it
// replays its earlier epochs, and the armory re-issues them. Here every
// vehicle lives twice, a first life, one supervised restart, and a
// second life, so each one exercises the replay path once. A life is as
// many randomizations as the vehicle of one protected built-in
// scenario makes (vehicleLives); the share of re-issues follows and is
// reported.

// vehicleLives is, for each protected built-in scenario, how many
// randomizations its vehicle makes: the boot's randomized record and
// one reflash record per re-randomization in its golden trace.
func vehicleLives(root string) ([]int, error) {
	var lives []int
	for _, s := range scenario.Builtin() {
		b, err := os.ReadFile(filepath.Join(root, "testdata", "golden", s.Name+".jsonl"))
		if err != nil {
			return nil, err
		}
		n := bytes.Count(b, []byte(`"kind":"randomized"`)) + bytes.Count(b, []byte(`"kind":"reflash"`))
		if n > 0 {
			lives = append(lives, n)
		}
	}
	if len(lives) == 0 {
		return nil, fmt.Errorf("no built-in scenario randomizes its vehicle")
	}
	return lives, nil
}

// armoryRig is one armory service behind its HTTP handler on loopback,
// with the three paper base images it serves.
type armoryRig struct {
	svc    *armory.Service
	srv    *http.Server
	url    string
	bases  [][]byte
	names  []string
	digest []string // canonical base digests, from the warm-up artifacts
	http   *http.Client
	warm   []issued
	lives  []int
}

// issued is one artifact as the benchmark received it.
type issued struct {
	base     int
	vehicle  string
	epoch    uint64
	perm     string
	artifact string
	order    []int
}

// startArmory generates the base images, starts the service and warms
// every base with one request.
func startArmory(cfg config) (*armoryRig, error) {
	lives, err := vehicleLives(cfg.root)
	if err != nil {
		return nil, err
	}
	rig := &armoryRig{lives: lives}
	for _, p := range firmware.Profiles() {
		img, err := firmware.Generate(p, firmware.ModeMAVR)
		if err != nil {
			return nil, err
		}
		elf, err := img.ELF.Marshal()
		if err != nil {
			return nil, err
		}
		rig.bases = append(rig.bases, elf)
		rig.names = append(rig.names, p.Name)
	}
	rig.svc = armory.New(armory.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.svc.Close()
		return nil, err
	}
	rig.url = "http://" + ln.Addr().String()
	rig.srv = &http.Server{Handler: armory.Handler(rig.svc)}
	go func() { _ = rig.srv.Serve(ln) }() // returns ErrServerClosed on stop
	rig.http = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.procs,
		MaxIdleConnsPerHost: cfg.procs,
	}}
	c := armory.NewClient(rig.url, armory.DefaultSecret)
	c.HTTPClient = rig.http
	for i, b := range rig.bases {
		v := fmt.Sprintf("warm-%d-%d", cfg.seed, i)
		art, err := c.Randomize(b, v, 0)
		if err != nil {
			rig.stop()
			return nil, fmt.Errorf("warming %s: %w", rig.names[i], err)
		}
		rig.digest = append(rig.digest, art.BaseDigest)
		rig.warm = append(rig.warm, issued{base: i, vehicle: v, perm: art.PermDigest, artifact: art.ArtifactDigest})
	}
	return rig, nil
}

func (r *armoryRig) stop() {
	_ = r.srv.Close() // closes the listener and every connection
	r.http.CloseIdleConnections()
	r.svc.Close()
}

// loadClient is one closed-loop client's state and findings. It flies
// one simulated vehicle at a time.
type loadClient struct {
	id        int
	api       *armory.Client
	vehicles  int               // vehicles started so far
	base      int               // the current vehicle's base image
	name      string            // the current vehicle's name
	plan      []uint64          // epochs the current vehicle has still to request
	own       map[uint64]issued // the current vehicle's artifacts by epoch
	held      []issued          // every new claim
	got       []issued          // every artifact received, re-issues included
	lat       []float64         // per request, untraced
	tracedLat []float64         // per request, traced
	checks    [][]string        // per request, the reasons it failed
	reissue   int
	sent      int // requests sent
	tr        *tracer
}

// startVehicle begins the next vehicle: its first life's epochs, then,
// after the restart, its second life's from 0 again.
func (lc *loadClient) startVehicle(rig *armoryRig, seed int64) {
	n := lc.vehicles
	lc.vehicles++
	lc.base = (lc.id + n) % len(rig.bases)
	lc.name = fmt.Sprintf("uav-%d-%d-%d", seed, lc.id, n)
	i := int((seed + int64(lc.id+n)) % int64(len(rig.lives)))
	lc.plan = lc.plan[:0]
	for _, life := range []int{rig.lives[i], rig.lives[(i+1)%len(rig.lives)]} {
		for e := 0; e < life; e++ {
			lc.plan = append(lc.plan, uint64(e))
		}
	}
	lc.own = map[uint64]issued{}
}

// request sends the current vehicle's next request, checks the
// artifact and records it. forge alters the artifact's signature on
// receipt; traced puts a span around the call.
func (lc *loadClient) request(rig *armoryRig, seed int64, forge, traced bool) {
	if len(lc.plan) == 0 {
		lc.startVehicle(rig, seed)
	}
	ep := lc.plan[0]
	lc.plan = lc.plan[1:]
	want, replay := lc.own[ep]
	base, vehicle := lc.base, lc.name
	tr := lc.tr
	if !traced {
		tr = nil
	}
	t0 := time.Now()
	tr.begin("armory.request")
	art, err := lc.api.Randomize(rig.bases[base], vehicle, ep)
	tr.end()
	if traced {
		lc.tracedLat = append(lc.tracedLat, ms(time.Since(t0)))
	} else {
		lc.lat = append(lc.lat, ms(time.Since(t0)))
	}
	if reason := unusable(art, err, forge); reason != "" {
		lc.checks = append(lc.checks, []string{fmt.Sprintf("%s/%d: %s", vehicle, ep, reason)})
		return
	}
	got := issued{base: base, vehicle: vehicle, epoch: ep, perm: art.PermDigest, artifact: art.ArtifactDigest, order: art.Perm}
	lc.got = append(lc.got, got)
	var reasons []string
	if replay {
		lc.reissue++
		if !art.Reissued || art.ArtifactDigest != want.artifact || art.PermDigest != want.perm {
			reasons = append(reasons, fmt.Sprintf("%s/%d: re-issue is not byte-identical to the original", vehicle, ep))
		}
	} else {
		lc.own[ep] = got
		lc.held = append(lc.held, got)
	}
	lc.checks = append(lc.checks, reasons)
}

// unusable is why a received artifact cannot be flashed, or "".
func unusable(art *armory.Artifact, err error, forge bool) string {
	if err != nil {
		return err.Error()
	}
	if forge {
		sig := []byte(art.Signature)
		sig[0] ^= 1
		art.Signature = string(sig)
	}
	switch {
	case !armory.VerifySignature(armory.DefaultSecret, art.BaseDigest, art.PermDigest, art.ArtifactDigest, art.Signature):
		return "signature does not verify"
	case armory.Digest(art.Image) != art.ArtifactDigest:
		return "artifact digest mismatch"
	case armory.PermDigest(art.Perm) != art.PermDigest:
		return "permutation digest mismatch"
	case art.Report == nil || !art.Report.OK():
		return "verification report not clean"
	}
	return ""
}

// probeLimit bounds how many traced artifacts are re-timed in-process.
const probeLimit = 100

// probeArtifacts re-times issued artifacts in-process after the traced
// load, one at a time: the service call on the same request without
// HTTP (a re-issue), and the randomize and cached verify it performs.
// Each must reproduce the artifact the client received.
func probeArtifacts(rig *armoryRig, got []issued, tr *tracer, o *outcome) (sites, resolved int, fast, total uint64, err error) {
	opts := staticverify.DefaultOptions()
	opts.VSA = true
	var pres []*core.Preprocessed
	var bases []*staticverify.Base
	for i, b := range rig.bases {
		pre, err := core.LoadImage(b)
		if err != nil {
			return 0, 0, 0, 0, fmt.Errorf("%s: %w", rig.names[i], err)
		}
		tr.begin("staticverify.base")
		base := staticverify.NewBase(pre, opts)
		tr.end()
		s, r, _ := base.VSASummary()
		sites += s
		resolved += r
		pres = append(pres, pre)
		bases = append(bases, base)
	}
	for _, g := range got[:min(len(got), probeLimit)] {
		o.check(fmt.Sprintf("probe %s/%d", g.vehicle, g.epoch), probe(rig, pres, bases, g, tr))
	}
	for _, b := range bases {
		st := b.Stats()
		fast += st.FastVerifies
		total += st.FastVerifies + st.FallbackVerifies
	}
	return sites, resolved, fast, total, nil
}

// probe re-times one issued artifact in-process and returns why it
// could not be reproduced, if it could not.
func probe(rig *armoryRig, pres []*core.Preprocessed, bases []*staticverify.Base, g issued, tr *tracer) []string {
	tr.begin("armory.service")
	again, err := rig.svc.Randomize(armory.Request{Image: rig.bases[g.base], Vehicle: g.vehicle, Epoch: g.epoch})
	tr.end()
	if err != nil || again.ArtifactDigest != g.artifact {
		return []string{fmt.Sprintf("in-process service disagrees with HTTP (%v)", err)}
	}
	tr.begin("core.randomize")
	r, err := core.Randomize(pres[g.base], g.order)
	tr.end()
	if err != nil || armory.Digest(r.Image) != g.artifact {
		return []string{fmt.Sprintf("re-derived artifact differs (%v)", err)}
	}
	tr.begin("staticverify.cached_verify")
	rep := bases[g.base].Verify(r)
	tr.end()
	if !rep.OK() {
		return []string{"cached verification rejects the artifact"}
	}
	return nil
}

// loadSlice is how long the clients run between two samples of the
// reference speed, for which they pause.
const loadSlice = 2 * time.Second

// loadPhase runs procs closed-loop clients for d, in slices of
// loadSlice; between slices, with every client idle, it samples ref
// (if not nil). In a traced run every other request of each client is
// traced, so that traced and untraced requests share the same service,
// ledger and moment.
func loadPhase(rig *armoryRig, cfg config, d time.Duration, ref *speedRef) []*loadClient {
	clients := make([]*loadClient, cfg.procs)
	for i := range clients {
		api := armory.NewClient(rig.url, armory.DefaultSecret)
		api.HTTPClient = rig.http
		clients[i] = &loadClient{id: i, api: api}
		if cfg.trace {
			clients[i].tr = newTracer()
		}
	}
	end := time.Now().Add(d)
	for first := true; first || time.Now().Before(end); first = false {
		deadline := time.Now().Add(loadSlice)
		if deadline.After(end) {
			deadline = end
		}
		var wg sync.WaitGroup
		for _, lc := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k == 0 || time.Now().Before(deadline); k++ {
					forge := cfg.inject == "forge-signature" && lc.id == 0 && lc.sent == 0
					lc.request(rig, cfg.seed, forge, cfg.trace && lc.sent%2 == 1)
					lc.sent++
				}
			}()
		}
		wg.Wait()
		if ref != nil {
			ref.sample(3)
		}
	}
	return clients
}

// runArmory provisions artifacts from the armory over HTTP. One op is
// one signed artifact.
func runArmory(cfg config) (*outcome, error) {
	var ref *speedRef
	if !cfg.trace {
		ref = newSpeedRef()
	}
	rig, setups, err := repeatSetup(func() (*armoryRig, error) { return startArmory(cfg) }, (*armoryRig).stop, ref)
	if err != nil {
		return nil, err
	}
	defer rig.stop()

	o := newOutcome()
	w := startWindow()
	clients := loadPhase(rig, cfg, cfg.seconds, ref)
	s := w.stop()
	if ref != nil {
		s.exclude(ref)
	}

	// Per-request findings, then the fleet-wide ledger audit, one op
	// per base: every new claim must hold a distinct permutation of its
	// base, and the ledger must count exactly those.
	var lat, tracedLat []float64
	var got []issued
	reissues := 0
	claims := make([]map[string]int, len(rig.bases))
	for i := range claims {
		claims[i] = map[string]int{}
	}
	for _, h := range rig.warm {
		claims[h.base][h.perm]++
	}
	for _, lc := range clients {
		lat = append(lat, lc.lat...)
		tracedLat = append(tracedLat, lc.tracedLat...)
		got = append(got, lc.got...)
		reissues += lc.reissue
		for _, reasons := range lc.checks {
			o.check("armory request", reasons)
		}
		for _, h := range lc.held {
			claims[h.base][h.perm]++
		}
	}
	requests := len(lat) + len(tracedLat)
	for i, perms := range claims {
		var reasons []string
		for p, k := range perms {
			if k > 1 {
				reasons = append(reasons, fmt.Sprintf("permutation %s issued to %d holders", p, k))
			}
		}
		if n := rig.svc.Ledger().Issued(rig.digest[i]); n != len(perms) {
			reasons = append(reasons, fmt.Sprintf("ledger counts %d issued permutations, clients hold %d distinct", n, len(perms)))
		}
		o.check(rig.names[i]+" ledger", reasons)
	}
	o.details["clients"] = cfg.procs
	o.details["requests"] = requests
	o.details["reissues"] = reissues
	o.details["reissue_share"] = ratio(float64(reissues), float64(requests))
	o.details["vehicle_lives"] = rig.lives
	o.details["request_samples"] = len(lat)

	if !cfg.trace {
		setEndToEnd(o, s, float64(requests), setups, ref)
		o.details["artifacts_per_s"] = o.metrics["ops_per_s"].Value
		o.details["request_p50_ms"] = median(lat)
		if p, ok := percentile(lat, 0.9); ok {
			o.details["request_p90_ms"] = p
		}
		return o, nil
	}

	tr := newTracer()
	for _, lc := range clients {
		tr.merge(lc.tr)
	}
	st := rig.svc.Stats()
	vals := map[string]float64{}
	vals["armory.request_p50_ms"] = median(lat)
	if p, ok := percentile(lat, 0.9); ok {
		vals["armory.request_p90_ms"] = p
	}
	vals["armory.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	vals["armory.reissue_ratio"] = ratio(float64(reissues), float64(requests))
	vals["armory.ledger_conflicts"] = float64(st.LedgerConflicts)
	vals["armory.queue_high_water"] = float64(st.QueueHighWater)
	sites, resolved, fast, total, err := probeArtifacts(rig, got, tr, o)
	if err != nil {
		return nil, err
	}
	vals["vsa.sites"] = float64(sites)
	vals["vsa.resolved_sites"] = float64(resolved)
	vals["staticverify.fast_verify_ratio"] = ratio(float64(fast), float64(total))
	vals["armory.service_ms"] = tr.meanMS("armory.service")
	vals["core.randomize_ms"] = tr.meanMS("core.randomize")
	vals["staticverify.base_ms"] = tr.meanMS("staticverify.base")
	vals["staticverify.cached_verify_ms"] = tr.meanMS("staticverify.cached_verify")
	// Closed loop: each client's request rate is one over its mean
	// request time, traced and untraced requests alike.
	vals["trace.untraced_ops_per_s"] = closedLoopRate(cfg.procs, lat)
	vals["trace.traced_ops_per_s"] = closedLoopRate(cfg.procs, tracedLat)
	vals["trace.overhead_ratio"] = vals["trace.untraced_ops_per_s"]/vals["trace.traced_ops_per_s"] - 1
	// Request interleaving is timing-dependent here: no count repeats
	// exactly, so counts.exact stays 0.
	setLayers(o, vals)
	o.details["service_stats"] = st
	o.details["traced_request_samples"] = len(tracedLat)
	o.details["probed_artifacts"] = min(len(got), probeLimit)
	o.details["spans"] = tr.table()
	return o, nil
}

// closedLoopRate is the request rate of n closed-loop clients whose
// requests took latMS each.
func closedLoopRate(n int, latMS []float64) float64 {
	var sum float64
	for _, l := range latMS {
		sum += l
	}
	return ratio(float64(n*len(latMS)), sum/1e3)
}
