package main

import (
	"fmt"
	"sort"
	"time"

	"mavr/internal/attack"
	"mavr/internal/board"
	"mavr/internal/chaos"
	"mavr/internal/core"
	"mavr/internal/firmware"
	"mavr/internal/gcs"
	"mavr/internal/netlink"
	"mavr/internal/scenario"
	"mavr/internal/staticverify"
)

// The traced run cannot see inside scenario.Run, so drive executes a
// Spec itself through the same public calls scenario.Run makes, with a
// span around each one. It must produce the same records: the golden
// workload compares its trace with testdata/golden, the sweep with the
// trace digest of scenario.Run.

// layerCounts accumulates the work counted at layer boundaries.
type layerCounts struct {
	avrCycles, blockExecs, interpSteps, translated, invalidated, bails uint64

	randomizations, reflashes, verifyRejections int

	bytesFed, frames, frameErrors int
	datagrams, datagramBytes      int
	records                       int
	synthCalls, synthFound        int
	vsaSites, vsaResolved         int
	fastVerifies, cachedVerifies  int
}

// add folds another count set into c.
func (c *layerCounts) add(o layerCounts) {
	c.avrCycles += o.avrCycles
	c.blockExecs += o.blockExecs
	c.interpSteps += o.interpSteps
	c.translated += o.translated
	c.invalidated += o.invalidated
	c.bails += o.bails
	c.randomizations += o.randomizations
	c.reflashes += o.reflashes
	c.verifyRejections += o.verifyRejections
	c.bytesFed += o.bytesFed
	c.frames += o.frames
	c.frameErrors += o.frameErrors
	c.datagrams += o.datagrams
	c.datagramBytes += o.datagramBytes
	c.records += o.records
	c.synthCalls += o.synthCalls
	c.synthFound += o.synthFound
	c.vsaSites += o.vsaSites
	c.vsaResolved += o.vsaResolved
	c.fastVerifies += o.fastVerifies
	c.cachedVerifies += o.cachedVerifies
}

// exact lists the counts that must repeat exactly for the same input.
func (c *layerCounts) exact() map[string]float64 {
	return map[string]float64{
		"avr.cycles":               float64(c.avrCycles),
		"avr.block_execs":          float64(c.blockExecs),
		"avr.interp_steps":         float64(c.interpSteps),
		"avr.translated":           float64(c.translated),
		"avr.invalidated":          float64(c.invalidated),
		"board.randomizations":     float64(c.randomizations),
		"board.reflashes":          float64(c.reflashes),
		"board.verify_rejections":  float64(c.verifyRejections),
		"scenario.records":         float64(c.records),
		"vsa.sites":                float64(c.vsaSites),
		"vsa.resolved_sites":       float64(c.vsaResolved),
		"gcs.bytes_fed":            float64(c.bytesFed),
		"mavlink.frames":           float64(c.frames),
		"mavlink.frame_errors":     float64(c.frameErrors),
		"netlink.datagrams_out":    float64(c.datagrams),
		"attack.synth_found_count": float64(c.synthFound),
	}
}

// epoch is one accepted in-process randomization, captured through
// Master.Instrument so the master stage can be re-timed afterwards.
type epoch struct {
	flash  *board.ExternalFlash
	pre    *core.Preprocessed
	perm   []int
	digest string
}

// driven is one driven scenario execution.
type driven struct {
	records []scenario.Record
	epochs  []epoch
}

type pendingSend struct {
	at      time.Duration
	note    string
	payload []byte
	landed  func(*board.System) bool
}

func appSpec(name string) (firmware.AppSpec, error) {
	if name == "" || name == "testapp" {
		return firmware.TestApp(), nil
	}
	for _, p := range firmware.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return firmware.AppSpec{}, fmt.Errorf("unknown app profile %q", name)
}

// drive runs spec the way scenario.Run does, tracing every call.
func drive(spec scenario.Spec, tr *tracer, c *layerCounts) (*driven, error) {
	spec = spec.Effective()
	app, err := appSpec(spec.App)
	if err != nil {
		return nil, err
	}
	tr.begin("firmware.generate")
	img, err := firmware.Generate(app, firmware.ModeMAVR)
	tr.end()
	if err != nil {
		return nil, err
	}
	sends, err := driveSends(spec, img, tr, c)
	if err != nil {
		return nil, err
	}

	var sys *board.System
	switch spec.Board {
	case scenario.BoardUnprotected:
		sys = board.NewSystem(board.SystemConfig{Unprotected: true})
	case scenario.BoardSoftwareOnly:
		sys = board.NewSystem(board.SystemConfig{SoftwareOnly: true, SoftwareSeed: spec.Seed})
	case scenario.BoardMAVR:
		sys = board.NewSystem(board.SystemConfig{Master: board.MasterConfig{
			Seed:            spec.Seed,
			WatchdogTimeout: spec.WatchdogTimeout,
			RandomizeEvery:  spec.RandomizeEvery,
			ProgramBaud:     spec.ProgramBaud,
			SkipVerify:      spec.SkipVerify,
		}})
	default:
		return nil, fmt.Errorf("unknown board mode %q", spec.Board)
	}
	tr.begin("board.flash_firmware")
	err = sys.FlashFirmware(img)
	tr.end()
	if err != nil {
		return nil, err
	}
	d := &driven{}
	if sys.Master != nil {
		sys.Master.Instrument(func(pre *core.Preprocessed, r *core.Randomized) {
			d.epochs = append(d.epochs, epoch{
				flash: sys.Flash, pre: pre,
				perm: append([]int(nil), r.Perm...), digest: fnvDigest(r.Image),
			})
		})
	}
	tr.begin("board.boot")
	_, err = sys.Boot()
	tr.end()
	if err != nil {
		return nil, err
	}

	linkOn, chaosOn := spec.Link.Active(), spec.Chaos.Active()
	mon := &gcs.Monitor{TolerateLinkLoss: linkOn || chaosOn}
	link := netlink.SimConfig{Seed: spec.Seed, DropRate: spec.Link.DropRate, DupRate: spec.Link.DupRate}
	ch := chaos.Config{
		Seed:              spec.Seed,
		PartitionDownRate: spec.Chaos.PartitionRate,
		PartitionWindow:   spec.Chaos.PartitionWindow,
		CorruptRate:       spec.Chaos.CorruptRate,
	}
	var split netlink.StreamSplitter
	var dgSeq uint32
	var mavSeq byte
	var eventsSeen int
	var prev scenario.Counters
	var inOutage bool
	recs := []scenario.Record{}

	emitEvents := func() {
		evs := sys.Events()
		for ; eventsSeen < len(evs); eventsSeen++ {
			e := evs[eventsSeen]
			recs = append(recs, scenario.Record{T: int64(e.At), Kind: e.Kind.String(), Note: e.Note})
		}
	}
	counters := func() scenario.Counters {
		k := scenario.Counters{
			Pulses:         mon.Pulses,
			SeqGaps:        mon.SeqGaps,
			LinkGaps:       mon.LinkGaps,
			Garbage:        mon.Garbage,
			Heartbeats:     mon.Heartbeats,
			FrameErrors:    mon.HeartbeatErrors,
			RawIMUs:        mon.RawIMUs,
			ParamEchoes:    mon.ParamEchoes,
			MaxSilence:     int64(mon.MaxSilence),
			LinkOutages:    mon.LinkOutages,
			CorruptDrops:   mon.CorruptDrops,
			MaxLinkSilence: int64(mon.MaxLinkSilence),
		}
		if sys.Master != nil {
			k.Epoch = sys.Master.Stats().Randomizations
		}
		return k
	}
	emitDeltas := func(now time.Duration) {
		cur := counters()
		t := int64(now)
		for _, dl := range []struct {
			kind string
			n    int
		}{
			{"seq-gap", cur.SeqGaps - prev.SeqGaps},
			{"link-gap", cur.LinkGaps - prev.LinkGaps},
			{"garbage", cur.Garbage - prev.Garbage},
			{"frame-error", cur.FrameErrors - prev.FrameErrors},
			{"heartbeat", cur.Heartbeats - prev.Heartbeats},
			{"raw-imu", cur.RawIMUs - prev.RawIMUs},
			{"param-echo", cur.ParamEchoes - prev.ParamEchoes},
			{"corrupt-drop", cur.CorruptDrops - prev.CorruptDrops},
			{"link-outage", cur.LinkOutages - prev.LinkOutages},
		} {
			if dl.n != 0 {
				recs = append(recs, scenario.Record{T: t, Kind: dl.kind, N: dl.n})
			}
		}
		prev = cur
	}
	feed := func(raw []byte, now time.Duration) {
		tr.begin("gcs.feed")
		mon.Feed(raw, now)
		tr.end()
		c.bytesFed += len(raw)
	}

	startNote := fmt.Sprintf("%s board=%s app=%s seed=%d drop=%g dup=%g injections=%d",
		spec.Name, spec.Board, spec.App, spec.Seed, spec.Link.DropRate, spec.Link.DupRate, len(spec.Injections))
	if chaosOn {
		startNote += fmt.Sprintf(" chaos(partition=%g window=%d corrupt=%g)",
			spec.Chaos.PartitionRate, spec.Chaos.PartitionWindow, spec.Chaos.CorruptRate)
	}
	recs = append(recs, scenario.Record{T: 0, Kind: "start", Note: startNote})
	emitEvents()

	cpu := sys.App.CPU
	start := sys.Now()
	end := start + spec.Run
	nextCheckpoint := spec.Checkpoint
	sent := 0
	for sys.Now() < end {
		now := sys.Now()
		elapsed := now - start
		for sent < len(sends) && sends[sent].at <= elapsed {
			s := sends[sent]
			f := attack.Frame(s.payload)
			f.Seq = mavSeq
			mavSeq++
			wire := f.MarshalOversize()
			sys.SendToUAV(wire)
			recs = append(recs, scenario.Record{
				T: int64(now), Kind: "inject", Note: s.note,
				N: len(wire), Payload: fnvDigest(wire),
			})
			sent++
		}

		step := spec.Step
		if rem := end - now; rem < step {
			step = rem
		}
		c0 := cpu.Cycles
		tr.begin("board.run")
		err := sys.Run(step)
		tr.end()
		if err != nil {
			return nil, err
		}
		// A reflash resets the core's cycle counter mid-step; count from
		// zero then.
		if c1 := cpu.Cycles; c1 >= c0 {
			c.avrCycles += c1 - c0
		} else {
			c.avrCycles += c1
		}
		raw := sys.DrainGCS()
		if linkOn || chaosOn {
			var corrupted, partitioned int
			tr.begin("netlink.link_faults")
			raw, partitioned, corrupted = applyFaults(&split, link, ch, linkOn, &dgSeq, raw, c)
			tr.end()
			for i := 0; i < corrupted; i++ {
				mon.NoteCorrupt()
			}
			switch {
			case inOutage && len(raw) == 0:
				mon.FeedLinkIdle(sys.Now())
			case len(raw) == 0 && partitioned > 0:
				inOutage = true
				mon.FeedLinkIdle(sys.Now())
			case inOutage:
				mon.NoteLinkOutage(sys.Now())
				inOutage = false
				feed(raw, sys.Now())
			default:
				feed(raw, sys.Now())
			}
		} else {
			feed(raw, sys.Now())
		}

		emitEvents()
		emitDeltas(sys.Now())
		if sys.Now()-start >= nextCheckpoint {
			k := counters()
			recs = append(recs, scenario.Record{T: int64(sys.Now()), Kind: "checkpoint", Counters: &k})
			for nextCheckpoint <= sys.Now()-start {
				nextCheckpoint += spec.Checkpoint
			}
		}
	}

	v := scenario.Verdict{
		Compromised:   mon.CompromiseDetected(spec.SilenceThreshold),
		VehicleSilent: mon.VehicleSilent(spec.SilenceThreshold),
		BoardAlive:    sys.App.Running(),
		GyroCfg:       sys.App.CPU.Data[firmware.AddrGyroCfg],
		Final:         counters(),
	}
	if chaosOn {
		v.Health = mon.Classify(spec.SilenceThreshold).String()
	}
	if sys.Master != nil {
		st := sys.Master.Stats()
		v.FailuresDetected = st.FailuresDetected
		v.Reflashes = len(sys.Reflashes())
		v.VerifyRejections = st.VerifyRejections
		c.randomizations += st.Randomizations
		c.verifyRejections += st.VerifyRejections
	}
	c.reflashes += len(sys.Reflashes())
	landedAll := false
	for _, s := range sends {
		if s.landed == nil {
			continue
		}
		if !s.landed(sys) {
			landedAll = false
			break
		}
		landedAll = true
	}
	v.AttackLanded = landedAll
	recs = append(recs, scenario.Record{T: int64(sys.Now()), Kind: "verdict", Verdict: &v})

	bs := cpu.TranslationStats()
	c.blockExecs += bs.Execs
	c.interpSteps += bs.InterpSteps
	c.translated += bs.Translated
	c.invalidated += bs.Invalidated
	c.bails += bs.Bails
	c.frames += mon.Heartbeats + mon.RawIMUs + mon.ParamEchoes
	c.frameErrors += mon.HeartbeatErrors
	c.records += len(recs)
	d.records = recs
	return d, nil
}

// driveSends expands the injection plan as scenario.Run does.
func driveSends(spec scenario.Spec, img *firmware.Image, tr *tracer, c *layerCounts) ([]pendingSend, error) {
	if len(spec.Injections) == 0 {
		return nil, nil
	}
	tr.begin("attack.analyze")
	a, err := attack.Analyze(img.ELF)
	tr.end()
	if err != nil {
		return nil, err
	}
	var synth *attack.Synthesis
	synthesize := func() (*attack.Synthesis, error) {
		if synth != nil {
			return synth, nil
		}
		tr.begin("attack.synthesize")
		s, err := attack.Synthesize(img.ELF, attack.SynthOptions{Stealth: true, Seed: spec.Seed})
		tr.end()
		if err != nil {
			return nil, err
		}
		c.synthCalls++
		if s.Found {
			c.synthFound++
		}
		synth = s
		return s, nil
	}
	landedAt := func(addr uint16, val byte) func(*board.System) bool {
		return func(s *board.System) bool { return s.App.CPU.Data[addr] == val }
	}
	var sends []pendingSend
	for idx, inj := range spec.Injections {
		if inj.Addr == 0 {
			inj.Addr = firmware.AddrGyroCfg
		}
		if inj.StageWrites == 0 {
			inj.StageWrites = 4
		}
		if inj.StageAddr == 0 {
			inj.StageAddr = firmware.AddrFreeMem
		}
		if inj.Spacing == 0 {
			inj.Spacing = 30 * time.Millisecond
		}
		w := attack.Write{Addr: inj.Addr, Vals: [3]byte{inj.Value, 0, 0}}
		switch inj.Kind {
		case scenario.InjectV1, scenario.InjectV2:
			build := attack.BuildV1
			if inj.Kind == scenario.InjectV2 {
				build = attack.BuildV2
			}
			p, err := build(a, w)
			if err != nil {
				return nil, fmt.Errorf("injection %d: %w", idx, err)
			}
			sends = append(sends, pendingSend{
				at:      inj.At,
				note:    fmt.Sprintf("%s write 0x%04X=0x%02X", inj.Kind, inj.Addr, inj.Value),
				payload: p,
				landed:  landedAt(inj.Addr, inj.Value),
			})
		case scenario.InjectV3:
			var big []attack.Write
			for i := 0; i < inj.StageWrites; i++ {
				big = append(big, attack.Write{
					Addr: inj.Addr + uint16(3*i),
					Vals: [3]byte{inj.Value, byte(i), byte(i + 100)},
				})
			}
			packets, err := attack.BuildV3(a, big, inj.StageAddr)
			if err != nil {
				return nil, fmt.Errorf("injection %d: %w", idx, err)
			}
			for i, p := range packets {
				sends = append(sends, pendingSend{
					at:      inj.At + time.Duration(i)*inj.Spacing,
					note:    fmt.Sprintf("v3 packet %d/%d stage 0x%04X", i+1, len(packets), inj.StageAddr),
					payload: p,
					landed:  landedAt(inj.Addr, inj.Value),
				})
			}
		case scenario.InjectSynth:
			s, err := synthesize()
			if err != nil {
				return nil, fmt.Errorf("injection %d: %w", idx, err)
			}
			if !s.Found {
				return nil, fmt.Errorf("injection %d: synthesis found no chain (%d attempts)", idx, s.Attempts)
			}
			p, err := s.PayloadFor(w)
			if err != nil {
				return nil, fmt.Errorf("injection %d: %w", idx, err)
			}
			grade := "landing"
			if s.Stealthy {
				grade = "stealthy"
			}
			note := fmt.Sprintf("synth %s load=0x%06X store=0x%06X", grade, s.Writer.LoadAddr, s.Writer.StoreAddr)
			if s.Pivot != nil {
				note += fmt.Sprintf(" pivot=0x%06X", s.Pivot.Addr)
			}
			note += fmt.Sprintf(" attempts=%d write 0x%04X=0x%02X", s.Attempts, inj.Addr, inj.Value)
			sends = append(sends, pendingSend{at: inj.At, note: note, payload: p, landed: landedAt(inj.Addr, inj.Value)})
		case scenario.InjectProbe:
			p, err := attack.BuildV1(a.AssumeWriteMem(inj.Candidate), w)
			if err != nil {
				return nil, fmt.Errorf("injection %d: %w", idx, err)
			}
			sends = append(sends, pendingSend{
				at:      inj.At,
				note:    fmt.Sprintf("probe candidate 0x%06X write 0x%04X=0x%02X", inj.Candidate, inj.Addr, inj.Value),
				payload: p,
			})
		default:
			return nil, fmt.Errorf("injection %d: unknown kind %q", idx, inj.Kind)
		}
	}
	sort.SliceStable(sends, func(i, j int) bool { return sends[i].at < sends[j].at })
	return sends, nil
}

// applyFaults packetizes the downlink into record-aligned datagrams and
// applies the chaos and link schedules, as the scenario runner does.
func applyFaults(split *netlink.StreamSplitter, cfg netlink.SimConfig, ch chaos.Config, linkOn bool, seq *uint32, raw []byte, c *layerCounts) (out []byte, partitioned, corrupted int) {
	for _, rec := range split.Feed(raw) {
		c.datagrams++
		c.datagramBytes += len(rec)
		s := *seq
		*seq++
		if ch.Partitioned(chaos.Down, 1, s) {
			partitioned++
			continue
		}
		if _, hit := ch.Corrupt(chaos.Down, 1, s); hit {
			corrupted++
			continue
		}
		if !linkOn {
			out = append(out, rec...)
			continue
		}
		fate := cfg.Fate("down", s)
		if fate.Drop {
			continue
		}
		for i := 0; i < fate.Copies; i++ {
			out = append(out, rec...)
		}
	}
	return out, partitioned, corrupted
}

// retime replays each captured epoch through the master's
// randomize -> verify -> program stage with the same inputs, so the
// stage and its parts get spans. A re-derived image that differs from
// the one the master accepted, or a verification the master passed
// that now fails, is an error.
func retime(epochs []epoch, app *board.AppProcessor, tr *tracer) error {
	for i, e := range epochs {
		tr.begin("board.master_stage")
		tr.begin("board.flash_load")
		pre, err := e.flash.Load()
		tr.end()
		if err != nil {
			tr.end()
			return fmt.Errorf("epoch %d: flash load: %w", i, err)
		}
		tr.begin("core.randomize")
		r, err := core.Randomize(pre, e.perm)
		tr.end()
		if err != nil {
			tr.end()
			return fmt.Errorf("epoch %d: randomize: %w", i, err)
		}
		tr.begin("staticverify.verify")
		rep := staticverify.Verify(pre, r, staticverify.Options{Gadgets: false})
		tr.end()
		tr.begin("board.program")
		err = app.Program(r.Image)
		tr.end()
		tr.end()
		if err != nil {
			return fmt.Errorf("epoch %d: program: %w", i, err)
		}
		if got := fnvDigest(r.Image); got != e.digest {
			return fmt.Errorf("epoch %d: re-derived image %s differs from the master's %s", i, got, e.digest)
		}
		if !rep.OK() {
			return fmt.Errorf("epoch %d: verification of the master's image now fails: %d errors", i, rep.Errors())
		}
	}
	return nil
}

// fnvDigest is the FNV-1a 64-bit hex digest scenario traces use for
// injected payloads.
func fnvDigest(b []byte) string {
	h := uint64(0xcbf29ce484222325)
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return fmt.Sprintf("%016x", h)
}
