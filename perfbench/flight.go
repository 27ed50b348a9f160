package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/downlink"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/geom"
	"repro/internal/merge"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/skymap"
	"repro/internal/stream"
	"repro/internal/xrand"
)

const (
	// flightMinAlerts alerts (two passes) leave ten samples beyond the
	// p50, so the p50 is also the reported tail: a third pass would cost
	// as much as the rest of the measured phase.
	flightMinAlerts = 20
	flightTailPct   = 50
	// backfillBatch is how many journal records one downlink message
	// carries.
	backfillBatch = 512
	// flightMaxC68Deg fails the run if alert localization collapses.
	flightMaxC68Deg = 25
)

type flightInput struct {
	bundle *models.Bundle
	x      *exposure
}

func setupFlight(b *bench) flightInput {
	return flightInput{bundle: float32Bundle(modelSeed), x: makeExposure(b.sub(4), b.workers)}
}

func (in flightInput) streamConfig(b *bench) stream.Config {
	cfg := stream.DefaultConfig(in.x.meanRate)
	cfg.Bundle = in.bundle
	cfg.Workers = b.workers
	cfg.SkyMap = true
	cfg.Seed = b.sub(5)
	return cfg
}

func linkConfig(b *bench) downlink.Config {
	return downlink.Config{
		BudgetBytesPerSec: 256 << 10,
		Seed:              b.sub(6),
		Loss:              downlink.LossProfile{DropProb: 0.05, ReorderProb: 0.1, ReorderDelaySec: 0.3},
	}
}

// flightPass is the outcome of one trip through the onboard loop.
type flightPass struct {
	wall     time.Duration // first merge emit → ground journal closed
	emitted  []*detector.Event
	alerts   []stream.Alert
	latency  []float64 // ms per alert: window-closing Ingest → alert received
	records  int       // journal records read back for backfill
	rawBytes int64     // journal payload bytes before the codec
	encBytes int64     // after the codec
	link     *downlink.Stats
	alertLag []float64 // event-time alert delivery latency, s
	onboard  string
	ground   string

	groundAlerts, groundMaps [][]byte
	err                      error

	// Phase busy times after the stream closes, and their allocations
	// (counted only when traced).
	readback, encode, session, groundBusy                time.Duration
	readbackAllocs, encodeAllocs, sessionAllocs, gAllocs uint64
}

// runPass drives one exposure through merge → stream (journal, sky maps)
// → downlink session → ground reassembly. reg, when non-nil, is handed to
// the stream; traced adds allocation counts per phase.
func runPass(b *bench, in flightInput, dir string, reg *obs.Registry, traced bool) *flightPass {
	fp := &flightPass{onboard: filepath.Join(dir, "onboard"), ground: filepath.Join(dir, "ground")}
	allocs := func() uint64 {
		if traced {
			return mallocs()
		}
		return 0
	}
	j, err := flightlog.Open(flightlog.Options{Dir: fp.onboard, Sync: flightlog.SyncInterval})
	if err != nil {
		fp.err = err
		return fp
	}
	cfg := in.streamConfig(b)
	cfg.Journal = j
	cfg.Metrics = reg
	p := stream.New(cfg)

	n := len(in.x.events)
	fp.emitted = make([]*detector.Event, 0, n)
	ingestAt := make([]time.Duration, 0, n)
	var recvAt []time.Duration
	var base time.Time
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for a := range p.Alerts() {
			recvAt = append(recvAt, time.Since(base))
			fp.alerts = append(fp.alerts, a)
		}
	}()

	m, err := merge.New(merge.Config{Sources: []merge.Source{
		{Feed: merge.NewSlice(in.x.lanes[0])}, {Feed: merge.NewSlice(in.x.lanes[1])},
	}})
	if err != nil {
		fp.err = err
		p.Close()
		<-drained
		j.Close()
		return fp
	}
	base = time.Now()
	err = m.Run(func(ev *detector.Event) {
		fp.emitted = append(fp.emitted, ev)
		ingestAt = append(ingestAt, time.Since(base))
		p.Ingest(ev)
	})
	p.Close()
	<-drained
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fp.err = err
		return fp
	}

	// Flight side: read the journal back and batch it through the codec.
	a0, t0 := allocs(), time.Now()
	var records [][]byte
	err = flightlog.Replay(fp.onboard, func(rec []byte) error {
		records = append(records, append([]byte(nil), rec...))
		fp.rawBytes += int64(len(rec))
		return nil
	})
	fp.records = len(records)
	fp.readback, fp.readbackAllocs = time.Since(t0), allocs()-a0
	if err != nil {
		fp.err = err
		return fp
	}
	a0, t0 = allocs(), time.Now()
	var batches [][]byte
	for lo := 0; lo < len(records); lo += backfillBatch {
		enc, err := downlink.EncodeRecords(records[lo:min(lo+backfillBatch, len(records))], downlink.CodecOptions{})
		if err != nil {
			fp.err = err
			return fp
		}
		batches = append(batches, enc)
		fp.encBytes += int64(len(enc))
	}
	fp.encode, fp.encodeAllocs = time.Since(t0), allocs()-a0

	// Link and ground: alerts and their sky maps first, then the backfill.
	g, err := flightlog.Open(flightlog.Options{Dir: fp.ground})
	if err != nil {
		fp.err = err
		return fp
	}
	lc := linkConfig(b)
	lc.OnMessage = func(class downlink.Class, _ uint32, payload []byte, _ float64) {
		ga, gt := allocs(), time.Now()
		defer func() { fp.groundBusy += time.Since(gt); fp.gAllocs += allocs() - ga }()
		switch class {
		case downlink.ClassAlert:
			fp.groundAlerts = append(fp.groundAlerts, append([]byte(nil), payload...))
		case downlink.ClassSkyMap:
			fp.groundMaps = append(fp.groundMaps, append([]byte(nil), payload...))
		case downlink.ClassJournal:
			recs, err := downlink.DecodeRecords(payload)
			for _, rec := range recs {
				if err == nil {
					err = g.Append(rec)
				}
			}
			if err != nil && fp.err == nil {
				fp.err = err
			}
		}
	}
	a0, t0 = allocs(), time.Now()
	sess, err := downlink.NewSession(lc)
	if err != nil {
		fp.err = err
		g.Close()
		return fp
	}
	for _, a := range fp.alerts {
		t := a.TriggerTime + cfg.BurstWindowSec
		if err = sess.EnqueueAt(t, downlink.ClassAlert, alertJSON(a)); err == nil && len(a.SkyMapPayload) > 0 {
			err = sess.EnqueueAt(t, downlink.ClassSkyMap, a.SkyMapPayload)
		}
		if err != nil {
			fp.err = err
			g.Close()
			return fp
		}
	}
	end := max(sess.Now(), fp.emitted[len(fp.emitted)-1].ArrivalTime)
	for _, enc := range batches {
		if err := sess.EnqueueAt(end, downlink.ClassJournal, enc); err != nil {
			fp.err = err
			g.Close()
			return fp
		}
	}
	if !sess.Flush(end+24*3600) && fp.err == nil {
		fp.err = fmt.Errorf("downlink did not drain")
	}
	fp.session = time.Since(t0) - fp.groundBusy
	fp.sessionAllocs = allocs() - a0 - fp.gAllocs
	gt := time.Now()
	if err := g.Close(); err != nil && fp.err == nil {
		fp.err = err
	}
	fp.groundBusy += time.Since(gt)
	fp.wall = time.Since(base)
	fp.link = sess.Stats()
	fp.alertLag = sess.Latencies(downlink.ClassAlert)

	// Alert latency: from handing the window-closing event (the first event
	// at or after the burst deadline) to Ingest, until the alert arrived.
	for i, a := range fp.alerts {
		deadline := a.TriggerTime + cfg.BurstWindowSec
		k := sort.Search(len(fp.emitted), func(i int) bool { return fp.emitted[i].ArrivalTime >= deadline })
		if k < len(fp.emitted) && i < len(recvAt) {
			fp.latency = append(fp.latency, ms(recvAt[i]-ingestAt[k]))
		}
	}
	return fp
}

// alertJSON is the downlinked alert record, without the sky map, which
// travels in its own class.
func alertJSON(a stream.Alert) []byte {
	rec := a.Record()
	rec.SkyMapB64 = ""
	out, err := json.Marshal(rec)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode alert: %v", err))
	}
	return out
}

// checkPass verifies one pass: every injected burst alerted and localized,
// no event lost, and the ground copy of the journal, alerts and sky maps
// byte-identical to the onboard one. Every event and every injected burst
// is one operation: a dropped or shed event, and a missed or unlocalized
// burst, fail theirs.
func checkPass(b *bench, in flightInput, fp *flightPass) {
	x := in.x
	b.check(fp.err == nil, "flight pass: %v", fp.err)
	b.check(len(fp.emitted) == len(x.events), "flight: merge emitted %d of %d events", len(fp.emitted), len(x.events))
	b.check(fp.records == len(x.events), "flight: journal holds %d of %d events", fp.records, len(x.events))
	b.attempted += int64(len(x.events))
	b.failed += int64(max(0, len(x.events)-fp.records))
	b.check(len(fp.alerts) == len(x.onsets), "flight: %d alerts for %d injected bursts", len(fp.alerts), len(x.onsets))
	for k, onset := range x.onsets {
		ok := k < len(fp.alerts) && fp.alerts[k].Seq == k && fp.alerts[k].Result.Loc.OK &&
			fp.alerts[k].TriggerTime >= onset-0.1 && fp.alerts[k].TriggerTime < onset+0.5
		b.op(!ok)
		b.check(ok, "flight: burst %d at %.2f s not alerted and localized", k, onset)
	}
	b.check(len(fp.latency) == len(fp.alerts), "flight: %d of %d alert latencies measured", len(fp.latency), len(fp.alerts))
	b.check(len(fp.groundAlerts) == len(fp.alerts), "flight: ground received %d of %d alerts", len(fp.groundAlerts), len(fp.alerts))
	for i := 0; i < min(len(fp.groundAlerts), len(fp.alerts)); i++ {
		b.check(bytes.Equal(fp.groundAlerts[i], alertJSON(fp.alerts[i])), "flight: ground alert %d differs", i)
	}
	maps := 0
	for _, a := range fp.alerts {
		if len(a.SkyMapPayload) > 0 {
			b.check(maps < len(fp.groundMaps) && bytes.Equal(fp.groundMaps[maps], a.SkyMapPayload), "flight: ground sky map %d differs", maps)
			maps++
		}
	}
	b.check(maps == len(fp.alerts), "flight: %d sky maps for %d alerts", maps, len(fp.alerts))
	on, err1 := journalBytes(fp.onboard)
	gr, err2 := journalBytes(fp.ground)
	b.check(err1 == nil && err2 == nil && bytes.Equal(on, gr), "flight: ground journal differs from onboard (%v, %v)", err1, err2)
}

// replayGround replays the ground journal through a fresh processor with
// no journal and checks it reproduces the live alert records. It returns
// the replay's wall time.
func replayGround(b *bench, in flightInput, fp *flightPass) time.Duration {
	cfg := in.streamConfig(b)
	p := stream.New(cfg)
	var got []stream.Record
	done := make(chan struct{})
	go func() {
		defer close(done)
		for a := range p.Alerts() {
			got = append(got, a.Record())
		}
	}()
	t0 := time.Now()
	n, err := stream.ReplayJournal(fp.ground, p)
	<-done
	d := time.Since(t0)
	b.check(err == nil && n == len(in.x.events), "flight: ground replay read %d events (%v)", n, err)
	b.check(len(got) == len(fp.alerts), "flight: ground replay gave %d alerts, live %d", len(got), len(fp.alerts))
	for i := 0; i < min(len(got), len(fp.alerts)); i++ {
		b.check(got[i] == fp.alerts[i].Record(), "flight: replayed alert %d differs from live", i)
	}
	return d
}

// journalBytes concatenates a journal directory's segments in order.
func journalBytes(dir string) ([]byte, error) {
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.flog"))
	if err != nil || len(segs) == 0 {
		return nil, fmt.Errorf("no journal segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	var all []byte
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			return nil, err
		}
		all = append(all, data...)
	}
	return all, nil
}

// alertErrors is each alert's localization error against its injected
// burst.
func alertErrors(x *exposure, alerts []stream.Alert) []float64 {
	var errs []float64
	for i, a := range alerts {
		if i < len(x.truth) {
			errs = append(errs, errorDeg(a.Result, x.truth[i]))
		}
	}
	return errs
}

// runFlight repeats whole passes until the measured phase has lasted
// b.seconds and at least flightMinAlerts alerts were timed.
func runFlight(b *bench) {
	in, setupS := timedSetup(func() flightInput { return setupFlight(b) })
	var rates, lat []float64
	var first *flightPass
	var linkBytes, events int64
	heap := startHeapSampler()
	start := time.Now()
	for pass := 0; time.Since(start) < b.seconds || len(lat) < flightMinAlerts; pass++ {
		dir := filepath.Join(b.tmp, fmt.Sprintf("pass-%d", pass))
		fp := runPass(b, in, dir, nil, false)
		checkPass(b, in, fp)
		if fp.err != nil || len(fp.latency) == 0 {
			break
		}
		rates = append(rates, float64(len(fp.emitted))/fp.wall.Seconds())
		lat = append(lat, fp.latency...)
		linkBytes += fp.link.FrameBytesSent
		events += int64(len(fp.emitted))
		if first == nil {
			first = fp
			continue // kept for the replay check below
		}
		os.RemoveAll(dir)
	}
	peak := heap.Stop()
	if first != nil && first.err == nil {
		replayGround(b, in, first)
	}
	c68 := 0.0
	if first != nil {
		c68 = quantile(alertErrors(in.x, first.alerts), 0.68)
	}
	b.check(c68 < flightMaxC68Deg, "flight alert c68 %.2f° exceeds %d°", c68, flightMaxC68Deg)

	b.set("setup_s", setupS, "s")
	b.set("peak_heap_mb", peak, "MB")
	b.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	b.set("latency_tail_ms", quantile(lat, flightTailPct/100.0), "ms")
	b.set("throughput_per_s", quantile(rates, 0.5), "1/s")
	b.info["flight"] = map[string]any{
		"passes": len(rates), "events_per_pass": len(in.x.events), "alerts": len(lat),
		"tail_percentile": flightTailPct, "throughput": "exposure events per wall second, median of passes",
		"link_bytes_per_event": float64(linkBytes) / float64(max(events, 1)), "alert_c68_deg": c68,
	}
}

// traceFlight times each layer of the flight loop from this package: an
// instrumented pass gives stream localization (from its registry), then
// per-layer replays run over the same events — merge with a no-op emit,
// the stream's per-event journaling calls, the trigger with no journal and
// no models, and the sky-map product step for every alert — and a second
// instrumented pass closes the run. The end-to-end wall time and the link
// phases are the mean of the two passes.
func traceFlight(b *bench) {
	in := setupFlight(b)
	reg := obs.NewRegistry()
	fp := runPass(b, in, filepath.Join(b.tmp, "trace"), reg, true)
	checkPass(b, in, fp)
	if fp.err != nil || len(fp.emitted) == 0 {
		return
	}
	nEv := float64(len(fp.emitted))
	nAl := float64(max(len(fp.alerts), 1))
	var covered time.Duration
	perEvent := func(name string, d time.Duration, allocsPerEvent float64) {
		b.set(name, float64(d)/nEv, "ns")
		b.set(name+".allocs", allocsPerEvent, "count")
		covered += d
	}
	phase := func(name string, d time.Duration, allocs uint64) {
		b.set(name+"_ms", ms(d), "ms")
		b.set(name+"_ms.allocs", float64(allocs), "count")
		covered += d
	}

	// merge alone, emitting into nothing.
	var mergeSpan span
	mergeSpan.timeSpan(func() {
		m, err := merge.New(merge.Config{Sources: []merge.Source{
			{Feed: merge.NewSlice(in.x.lanes[0])}, {Feed: merge.NewSlice(in.x.lanes[1])},
		}})
		if err == nil {
			err = m.Run(func(*detector.Event) {})
		}
		b.check(err == nil, "flight trace: merge: %v", err)
	})
	perEvent("merge.ns_per_event", mergeSpan.d, float64(mergeSpan.allocs)/nEv)

	// The stream's per-event journaling calls, replayed in the stream's
	// order and timed call by call; allocations per call come from a
	// separate pass over a sample, since counting them stops the world.
	var marshal, appendSpan, unmarshal time.Duration
	journal := func(dir string, events []*detector.Event, timed bool) {
		j, err := flightlog.Open(flightlog.Options{Dir: filepath.Join(b.tmp, dir), Sync: flightlog.SyncInterval})
		for _, ev := range events {
			if err != nil {
				break
			}
			t0 := time.Now()
			var blob []byte
			blob, err = evio.Marshal([]*detector.Event{ev})
			t1 := time.Now()
			if err == nil {
				err = j.Append(blob)
			}
			t2 := time.Now()
			if err == nil {
				_, err = evio.Unmarshal(blob)
			}
			if timed {
				marshal, appendSpan, unmarshal = marshal+t1.Sub(t0), appendSpan+t2.Sub(t1), unmarshal+time.Since(t2)
			}
		}
		t0 := time.Now()
		if j != nil {
			if cerr := j.Close(); err == nil {
				err = cerr
			}
		}
		if timed {
			appendSpan += time.Since(t0)
		}
		b.check(err == nil, "flight trace: journal replay: %v", err)
	}
	journal("trace-journal", fp.emitted, true)
	sample := fp.emitted[:min(10000, len(fp.emitted))]
	blobs := make([][]byte, 0, len(sample))
	a0 := mallocs()
	for _, ev := range sample {
		blob, _ := evio.Marshal([]*detector.Event{ev})
		blobs = append(blobs, blob)
	}
	a1 := mallocs()
	for _, blob := range blobs {
		evio.Unmarshal(blob)
	}
	a2 := mallocs()
	journal("alloc-journal", sample, false)
	a3 := mallocs()
	nS := float64(len(sample))
	perEvent("evio.marshal_ns_per_event", marshal, float64(a1-a0)/nS)
	perEvent("flightlog.append_ns_per_event", appendSpan, (float64(a3-a2)-float64(a2-a0))/nS)
	perEvent("evio.unmarshal_ns_per_event", unmarshal, float64(a2-a1)/nS)

	// Trigger alone: no journal, no models, no sky maps; its own
	// localizations are subtracted.
	treg := obs.NewRegistry()
	tcfg := stream.DefaultConfig(in.x.meanRate)
	tcfg.Workers = b.workers
	tcfg.Metrics = treg
	var trig span
	trig.timeSpan(func() {
		p := stream.New(tcfg)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range p.Alerts() {
			}
		}()
		for _, ev := range fp.emitted {
			p.Ingest(ev)
		}
		p.Close()
		<-done
	})
	trig.d -= treg.Stage(stream.StageLocalize).Sum()
	perEvent("stream.trigger_ns_per_event", trig.d, float64(trig.allocs)/nEv)
	b.set("stream.triggers", float64(reg.Counter(stream.CtrTriggers).Load()), "count")
	b.set("stream.alerts", float64(reg.Counter(stream.CtrAlerts).Load()), "count")
	b.set("stream.events_dropped", float64(reg.Counter(stream.CtrDropped).Load()+reg.Counter(stream.CtrShed).Load()+
		reg.Counter(stream.CtrAlertsDropped).Load()), "count")

	// Localization inside the stream, from the registry it was handed.
	loc := reg.Stage(stream.StageLocalize)
	b.set("stream.localize_ms", ms(loc.Sum())/float64(max(loc.Count(), 1)), "ms")
	covered += loc.Sum()

	// The sky-map product step, mirrored per alert on the same window.
	sm := mirrorSkymaps(b, in, fp)
	b.set("skymap.deta_calibrated_ms", ms(sm.deta.d)/nAl, "ms")
	b.set("skymap.deta_calibrated_ms.allocs", float64(sm.deta.allocs)/nAl, "count")
	b.set("skymap.bkg_probs_ms", ms(sm.probs.d)/nAl, "ms")
	b.set("skymap.bkg_probs_ms.allocs", float64(sm.probs.allocs)/nAl, "count")
	b.set("skymap.build_ms", ms(sm.build.d)/nAl, "ms")
	b.set("skymap.build_ms.allocs", float64(sm.build.allocs)/nAl, "count")
	b.set("skymap.encode_us", float64(sm.encode.d)/1e3/nAl, "us")
	b.set("skymap.encode_us.allocs", float64(sm.encode.allocs)/nAl, "count")
	b.set("skymap.payload_bytes", float64(sm.bytes)/nAl, "B")
	skyTotal := sm.deta.d + sm.probs.d + sm.build.d + sm.encode.d
	covered += skyTotal
	b.set("stream.queue_wait_ms", mean(fp.latency)-ms(loc.Sum())/nAl-ms(skyTotal)/nAl, "ms")

	// A second instrumented pass after the replays: the wall time and the
	// link phases are the mean of both passes, so drift in host speed
	// during the traced run moves the spans and the wall time alike.
	again := runPass(b, in, filepath.Join(b.tmp, "trace-again"), nil, true)
	checkPass(b, in, again)
	avg := func(x, y time.Duration) time.Duration { return (x + y) / 2 }
	phase("flightlog.readback", avg(fp.readback, again.readback), fp.readbackAllocs)
	phase("downlink.encode", avg(fp.encode, again.encode), fp.encodeAllocs)
	phase("downlink.session", avg(fp.session, again.session), fp.sessionAllocs)
	phase("ground.reassembly", avg(fp.groundBusy, again.groundBusy), fp.gAllocs)
	b.set("downlink.codec_ratio", float64(fp.rawBytes)/float64(max(fp.encBytes, 1)), "ratio")
	b.set("downlink.chunks", float64(fp.link.ChunksSent), "count")
	b.set("downlink.retransmits", float64(fp.link.Retransmits), "count")
	b.set("downlink.alert_delivery_s", quantile(fp.alertLag, 0.5), "s")
	b.set("downlink.link_bytes_per_event", float64(fp.link.FrameBytesSent)/nEv, "B")

	rd := replayGround(b, in, fp)
	b.set("ground.replay_ns_per_event", float64(rd)/nEv, "ns")
	b.set("flight.alert_c68_deg", quantile(alertErrors(in.x, fp.alerts), 0.68), "deg")
	wall := avg(fp.wall, again.wall)
	b.set("flight.total_ms", ms(wall), "ms")
	b.set("flight.trace_coverage", float64(covered)/float64(wall), "ratio")
}

// skymapSpans are the sky-map product step's layers, summed over alerts.
type skymapSpans struct {
	deta, probs, build, encode span
	bytes                      int
}

// mirrorSkymaps rebuilds every alert's sky map from public calls — the
// alert's window through pipeline.RunWindow with the stream's options and
// seed, then the product step timed call by call — and checks each payload
// is byte-identical to the live alert's.
func mirrorSkymaps(b *bench, in flightInput, fp *flightPass) skymapSpans {
	cfg := in.streamConfig(b)
	opts := pipeline.DefaultOptions()
	opts.Recon, opts.Loc, opts.Bundle = cfg.Recon, cfg.Loc, cfg.Bundle
	opts.MaxNNIters, opts.Workers = cfg.MaxNNIters, cfg.Workers
	root := xrand.New(cfg.Seed)
	const ringBuffer = 1 << 16 // the stream's default event history

	var s skymapSpans
	for _, a := range fp.alerts {
		deadline := a.TriggerTime + cfg.BurstWindowSec
		k := sort.Search(len(fp.emitted), func(i int) bool { return fp.emitted[i].ArrivalTime >= deadline })
		window := fp.emitted[max(0, k-ringBuffer):k]
		res := pipeline.RunWindow(opts, window, a.TriggerTime-cfg.PreTriggerSec, deadline, root.Split(uint64(a.Seq)+1))
		if !res.Loc.OK {
			b.check(len(a.SkyMapPayload) == 0, "flight trace: alert %d has a map but its mirror failed to localize", a.Seq)
			continue
		}
		rings := res.ActiveRings
		polar := geom.Deg(geom.Polar(res.Loc.Dir))
		var probs []float64
		var pm *skymap.Map
		var payload []byte
		s.deta.timeSpan(func() { pipeline.ApplyDEtaCalibrated(cfg.Bundle, rings, polar) })
		s.probs.timeSpan(func() { probs = pipeline.BackgroundProbs(cfg.Bundle, rings, polar) })
		sopts := cfg.SkyMapOpts
		sopts.Workers = cfg.Workers
		s.build.timeSpan(func() { pm = skymap.FromRings(&cfg.Loc, rings, probs, sopts) })
		s.encode.timeSpan(func() { payload = pm.Encode() })
		s.bytes += len(payload)
		b.check(bytes.Equal(payload, a.SkyMapPayload), "flight trace: alert %d sky map mirror differs from the live payload", a.Seq)
	}
	return s
}
