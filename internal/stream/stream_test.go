package stream

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/flightlog"
	"repro/internal/localize"
	"repro/internal/models/modelstest"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

// tick makes a hit-less event at time t: the trigger sees it, the
// reconstruction rejects it, so trigger logic can be tested without
// paying for simulation or localization.
func tick(t float64) *detector.Event { return &detector.Event{ArrivalTime: t} }

// steadyTicks emits hit-less events at a constant rate over [t0, t1).
func steadyTicks(t0, t1, rate float64) []*detector.Event {
	var out []*detector.Event
	for t := t0; t < t1; t += 1 / rate {
		out = append(out, tick(t))
	}
	return out
}

func TestRateEstimatorConverges(t *testing.T) {
	e := &rateEstimator{binSec: 0.1, alpha: 0.1, rate: 100}
	for _, ev := range steadyTicks(0, 20, 1000) {
		e.advance(ev.ArrivalTime, false)
	}
	if math.Abs(e.rate-1000) > 50 {
		t.Errorf("rate = %.1f, want ~1000", e.rate)
	}
}

func TestRateEstimatorFrozenBins(t *testing.T) {
	e := &rateEstimator{binSec: 0.1, alpha: 0.1, rate: 1000}
	for _, ev := range steadyTicks(0, 5, 5000) { // 5× burst, frozen
		e.advance(ev.ArrivalTime, true)
	}
	if e.rate != 1000 {
		t.Errorf("frozen estimator moved: %.1f", e.rate)
	}
}

func TestRateEstimatorDecaysOverGaps(t *testing.T) {
	e := &rateEstimator{binSec: 0.1, alpha: 0.1, rate: 1000}
	e.advance(0, false)
	e.advance(100, false) // 1000 empty bins
	if e.rate > 1 {
		t.Errorf("rate after long gap = %g, want ~0", e.rate)
	}
}

func TestRingEvictsOldest(t *testing.T) {
	r := newRing(4)
	for i := 0; i < 10; i++ {
		r.push(tick(float64(i)))
	}
	if r.n != 4 || r.oldest() != 6 {
		t.Fatalf("ring n=%d oldest=%d, want 4, 6", r.n, r.oldest())
	}
	snap := r.snapshot()
	if len(snap) != 4 || snap[0].ArrivalTime != 6 || snap[3].ArrivalTime != 9 {
		t.Fatalf("snapshot = %v", times(snap))
	}
}

func times(evs []*detector.Event) []float64 {
	out := make([]float64, len(evs))
	for i, ev := range evs {
		out[i] = ev.ArrivalTime
	}
	return out
}

func TestQuietStreamNoAlerts(t *testing.T) {
	cfg := DefaultConfig(1000)
	alerts := Run(cfg, steadyTicks(0, 5, 1000))
	if len(alerts) != 0 {
		t.Fatalf("quiet stream produced %d alerts", len(alerts))
	}
}

func TestTriggerFiresOnRateExcess(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Metrics = obs.NewRegistry()
	events := steadyTicks(0, 3, 1000)
	// A 10× excess for 100 ms starting at t=1.5.
	events = append(events, steadyTicks(1.5, 1.6, 10000)...)
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	alerts := Run(cfg, events)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	if a.TriggerTime < 1.4 || a.TriggerTime > 1.65 {
		t.Errorf("trigger at %.3f s, want ~1.5", a.TriggerTime)
	}
	if a.Significance < cfg.SigmaThreshold {
		t.Errorf("significance %.1f below threshold", a.Significance)
	}
	if got := cfg.Metrics.Counter(CtrTriggers).Load(); got != 1 {
		t.Errorf("trigger counter = %d", got)
	}
	if got := cfg.Metrics.Counter(CtrIngested).Load(); got != int64(len(events)) {
		t.Errorf("ingested counter = %d, want %d", got, len(events))
	}
	if occ := cfg.Metrics.Gauge(GaugeOccupancy).Load(); occ == 0 {
		t.Error("ring-occupancy gauge never set")
	}
	if rate := cfg.Metrics.Gauge(GaugeRate).Load(); math.Abs(rate-1000) > 200 {
		t.Errorf("rate gauge = %.0f, want ~1000", rate)
	}
}

func TestAlertChannelOverflowCounts(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.AlertBuffer = 1
	cfg.Metrics = obs.NewRegistry()
	var events []*detector.Event
	events = append(events, steadyTicks(0, 2, 1000)...)
	// Three well-separated bursts; nobody drains the alert channel.
	for _, t0 := range []float64{2, 6, 10} {
		events = append(events, steadyTicks(t0, t0+0.1, 20000)...)
		events = append(events, steadyTicks(t0+0.1, t0+4, 1000)...)
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	p := New(cfg)
	for _, ev := range events {
		p.Ingest(ev)
	}
	p.Close()
	emitted := cfg.Metrics.Counter(CtrAlerts).Load()
	dropped := cfg.Metrics.Counter(CtrAlertsDropped).Load()
	if emitted != 1 || dropped != 2 {
		t.Fatalf("emitted=%d dropped=%d, want 1 buffered + 2 dropped", emitted, dropped)
	}
	// The buffered alert is still readable after Close.
	if _, ok := <-p.Alerts(); !ok {
		t.Fatal("buffered alert lost at Close")
	}
}

// TestRunReturnsEveryAlert: Run sizes the alert channel from its input, so
// more alerts than the default AlertBuffer all come back, in Seq order,
// with none dropped.
func TestRunReturnsEveryAlert(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Metrics = obs.NewRegistry()
	const bursts = 20
	var events []*detector.Event
	for k := 0; k < bursts; k++ {
		t0 := 2 * float64(k+1)
		events = append(events, steadyTicks(t0-2, t0, 1000)...)
		events = append(events, steadyTicks(t0, t0+0.1, 20000)...)
	}
	events = append(events, steadyTicks(2*bursts, 2*bursts+2, 1000)...)
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	if def := cfg.withDefaults().AlertBuffer; bursts <= def {
		t.Fatalf("the test needs more bursts than the default alert buffer (%d)", def)
	}
	alerts := Run(cfg, events)
	if len(alerts) != bursts {
		t.Fatalf("%d alerts for %d bursts", len(alerts), bursts)
	}
	for k, a := range alerts {
		if a.Seq != k {
			t.Errorf("alert %d has Seq %d", k, a.Seq)
		}
	}
	if got := cfg.Metrics.Counter(CtrAlertsDropped).Load(); got != 0 {
		t.Errorf("%s = %d, want 0", CtrAlertsDropped, got)
	}
}

// TestRearmAfterAlert checks the re-arm rule: after an alert the sliding
// window holds only events at or after that alert's window end. An excess
// that ends inside the first alert's window, but within one sliding
// window of its end, raises exactly one alert; an excess that outlasts the
// window re-alerts on fresh events, a full burst window later.
func TestRearmAfterAlert(t *testing.T) {
	cfg := DefaultConfig(1000)
	run := func(excessEnd float64) []Alert {
		events := append(steadyTicks(0, 4, 1000), steadyTicks(1.5, excessEnd, 10000)...)
		sort.SliceStable(events, func(i, j int) bool {
			return events[i].ArrivalTime < events[j].ArrivalTime
		})
		return Run(cfg, events)
	}

	const tailEnd = 2.35
	alerts := run(tailEnd)
	if len(alerts) != 1 {
		t.Fatalf("excess ending at %v s: %d alerts, want 1", tailEnd, len(alerts))
	}
	// The scenario only tests the rule if the tail still fills the sliding
	// window when the first alert's window closes.
	if end := alerts[0].TriggerTime + cfg.BurstWindowSec; end <= tailEnd || end-cfg.WindowSec >= tailEnd {
		t.Fatalf("first alert window ends at %.3f s; the excess must end in the sliding window before it", end)
	}

	alerts = run(2.8)
	if len(alerts) != 2 {
		t.Fatalf("excess outlasting the window: %d alerts, want 2", len(alerts))
	}
	if alerts[1].TriggerTime < alerts[0].TriggerTime+cfg.BurstWindowSec {
		t.Errorf("re-alert at %.3f s counts events from the first alert's window (ends %.3f s)",
			alerts[1].TriggerTime, alerts[0].TriggerTime+cfg.BurstWindowSec)
	}
}

// TestBackpressureBoundedAndDeadlockFree saturates the ingest path while
// the consumer is slowed by per-record fsync journaling. The processor
// must keep bounded memory (fixed queue + ring), count its drops, and
// drain cleanly — this test runs under -race in CI.
func TestBackpressureBoundedAndDeadlockFree(t *testing.T) {
	dir := t.TempDir()
	j, err := flightlog.Open(flightlog.Options{Dir: dir, Sync: flightlog.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1000)
	cfg.QueueEvents = 16
	cfg.AlertBuffer = 1
	cfg.Metrics = obs.NewRegistry()
	cfg.Journal = j
	p := New(cfg)
	const offered = 20000
	accepted := 0
	for i := 0; i < offered; i++ {
		if p.Offer(tick(float64(i) / 1000)) {
			accepted++
		}
	}
	p.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	ingested := cfg.Metrics.Counter(CtrIngested).Load()
	dropped := cfg.Metrics.Counter(CtrDropped).Load()
	if ingested != int64(accepted) {
		t.Errorf("ingested %d != accepted %d", ingested, accepted)
	}
	if ingested+dropped != offered {
		t.Errorf("ingested %d + dropped %d != offered %d", ingested, dropped, offered)
	}
	if dropped == 0 {
		t.Error("saturation produced no drops (consumer outran a tight Offer loop through fsync?)")
	}
	// The admitted events — and only those — were journaled.
	if n, err := flightlog.Count(dir); err != nil || n != int(ingested) {
		t.Errorf("journal holds %d records (err %v), want %d", n, err, ingested)
	}
	var buf bytes.Buffer
	cfg.Metrics.WriteText(&buf)
	for _, want := range []string{CtrDropped, CtrIngested} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("obs output missing %q:\n%s", want, buf.String())
		}
	}
}

// simSession builds a realistic recorded session: quiet background with
// one real simulated burst in the middle, sorted by arrival time.
func simSession(t *testing.T, seed uint64) (events []*detector.Event, meanRate float64) {
	t.Helper()
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rng := xrand.New(seed)
	meanRate = float64(len(bg.Simulate(&det, 1.0, rng.Split(0xCA1))))
	events = bg.Simulate(&det, 3.0, rng)
	for _, ev := range detector.SimulateBurst(&det, detector.Burst{Fluence: 2.0, PolarDeg: 20}, rng) {
		ev.ArrivalTime += 1.2
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	return events, meanRate
}

// TestCrashRecoveryReplayBitwise is the acceptance test for the journaled
// stream: record a live session, tear the journal tail as a crash
// mid-append would, then replay the recovered journal and require the
// original alert sequence bitwise (Record form; wall-clock timing is
// excluded by construction).
func TestCrashRecoveryReplayBitwise(t *testing.T) {
	events, meanRate := simSession(t, 7)
	dir := t.TempDir()
	j, err := flightlog.Open(flightlog.Options{Dir: dir, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(meanRate)
	cfg.Seed = 42
	cfg.Journal = j
	live := Run(cfg, events)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("live session produced no alerts; burst not detected")
	}
	if !live[0].Result.Loc.OK {
		t.Fatal("live alert has no localization")
	}

	// Crash mid-append: a torn partial record at the journal tail.
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.flog"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x42, 0x00, 0x00, 0x00, 0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen: recovery truncates the torn tail.
	j2, err := flightlog.Open(flightlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Stats().RecoveredTruncation == 0 {
		t.Error("recovery reported no truncation")
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	// Replay the recovered journal into a fresh processor (same config,
	// no journal) and compare alert records bitwise.
	replayCfg := cfg
	replayCfg.Journal = nil
	p := New(replayCfg)
	done := make(chan []Alert)
	go func() {
		var out []Alert
		for a := range p.Alerts() {
			out = append(out, a)
		}
		done <- out
	}()
	n, err := ReplayJournal(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(events) {
		t.Fatalf("replayed %d events, want %d", n, len(events))
	}
	replayed := <-done
	if len(replayed) != len(live) {
		t.Fatalf("replayed %d alerts, want %d", len(replayed), len(live))
	}
	for i := range live {
		if live[i].Record() != replayed[i].Record() {
			t.Errorf("alert %d differs:\nlive:   %+v\nreplay: %+v",
				i, live[i].Record(), replayed[i].Record())
		}
	}
}

// TestSkyMapAlertsReplayBitwise turns downlink map generation on, records
// a live session to a journal, and requires a replay to reproduce every
// alert record — including the encoded sky map payload — bitwise. The map
// is part of the downlink contract, so it must be as deterministic as the
// localization itself.
func TestSkyMapAlertsReplayBitwise(t *testing.T) {
	events, meanRate := simSession(t, 17)
	dir := t.TempDir()
	j, err := flightlog.Open(flightlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(meanRate)
	cfg.SkyMap = true
	cfg.Journal = j
	var live []Record
	for _, a := range Run(cfg, events) {
		live = append(live, a.Record())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("no alerts from the live session")
	}
	for i, rec := range live {
		if !rec.OK {
			continue
		}
		if rec.SkyMapB64 == "" {
			t.Fatalf("alert %d: localized but carries no sky map", i)
		}
		m, err := skymap.DecodeBase64(rec.SkyMapB64)
		if err != nil {
			t.Fatalf("alert %d: payload does not decode: %v", i, err)
		}
		if float64(m.Area90) != rec.Area90Deg2 || float64(m.Area68) != rec.Area68Deg2 {
			t.Errorf("alert %d: record areas (%v, %v) disagree with payload (%v, %v)",
				i, rec.Area68Deg2, rec.Area90Deg2, m.Area68, m.Area90)
		}
		if rec.Area68Deg2 > rec.Area90Deg2 {
			t.Errorf("alert %d: 68%% area exceeds 90%% area", i)
		}
	}

	// Replay with different worker counts: the records — payload bytes
	// included — must be identical to the live run.
	for _, workers := range []int{1, 4} {
		rcfg := cfg
		rcfg.Journal = nil
		rcfg.Workers = workers
		p := New(rcfg)
		done := make(chan []Record)
		go func() {
			var out []Record
			for a := range p.Alerts() {
				out = append(out, a.Record())
			}
			done <- out
		}()
		if _, err := ReplayJournal(dir, p); err != nil {
			t.Fatal(err)
		}
		replayed := <-done
		if len(replayed) != len(live) {
			t.Fatalf("workers=%d: replay produced %d alerts, live %d", workers, len(replayed), len(live))
		}
		for i := range live {
			if replayed[i] != live[i] {
				t.Errorf("workers=%d alert %d: replay record differs from live", workers, i)
			}
		}
	}
}

// TestSkyMapLeavesResultIntact: building an alert's sky map must not
// rewrite the localization result it came from. The alert's rings keep the
// widths a fresh run over the same window gives, and its error radius
// still describes those rings.
func TestSkyMapLeavesResultIntact(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	events, meanRate := simSession(t, 17)
	cfg := DefaultConfig(meanRate)
	cfg.Bundle = modelstest.QuantBundle(t, 81)
	cfg.SkyMap = true
	cfg.Seed = 5
	alerts := Run(cfg, events)
	if len(alerts) == 0 || len(alerts[0].SkyMapPayload) == 0 {
		t.Fatal("no sky-map alert")
	}
	a := alerts[0]
	opts := pipeline.DefaultOptions()
	opts.Bundle = cfg.Bundle
	fresh := pipeline.RunWindow(opts, events, a.TriggerTime-cfg.PreTriggerSec,
		a.TriggerTime+cfg.BurstWindowSec, xrand.New(cfg.Seed).Split(uint64(a.Seq)+1))
	got := a.Result.ActiveRings
	if len(got) != len(fresh.ActiveRings) {
		t.Fatalf("alert keeps %d rings, a fresh run %d", len(got), len(fresh.ActiveRings))
	}
	for i, r := range got {
		if r.DEta != fresh.ActiveRings[i].DEta {
			t.Fatalf("ring %d width %v, fresh run %v: the sky map rewrote the result", i, r.DEta, fresh.ActiveRings[i].DEta)
		}
	}
	loc := localize.DefaultConfig()
	if want := localize.ErrorRadiusDeg(&loc, got, a.Result.Loc.Dir); a.Result.ErrorRadiusDeg != want {
		t.Errorf("ErrorRadiusDeg %v, but its rings give %v", a.Result.ErrorRadiusDeg, want)
	}
}

func TestAdmitGateShedsDeterministically(t *testing.T) {
	cfg := DefaultConfig(1000)
	cfg.Metrics = obs.NewRegistry()
	// Shed everything in [1, 2): the 10× excess at t=1.5 must not trigger.
	cfg.Admit = func(ev *detector.Event) bool {
		return ev.ArrivalTime < 1 || ev.ArrivalTime >= 2
	}
	events := steadyTicks(0, 3, 1000)
	events = append(events, steadyTicks(1.5, 1.6, 10000)...)
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	alerts := Run(cfg, events)
	if len(alerts) != 0 {
		t.Fatalf("gated burst still produced %d alerts", len(alerts))
	}
	shed := cfg.Metrics.Counter(CtrShed).Load()
	ingested := cfg.Metrics.Counter(CtrIngested).Load()
	wantShed := int64(0)
	for _, ev := range events {
		if ev.ArrivalTime >= 1 && ev.ArrivalTime < 2 {
			wantShed++
		}
	}
	if shed != wantShed {
		t.Errorf("shed counter = %d, want %d", shed, wantShed)
	}
	if ingested != int64(len(events))-wantShed {
		t.Errorf("ingested counter = %d, want %d", ingested, int64(len(events))-wantShed)
	}
}
