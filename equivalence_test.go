package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"testing"

	"repro/adapt"
	"repro/internal/cli"
	"repro/internal/datagen"
	"repro/internal/detector"
	"repro/internal/downlink"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/merge"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/stream"
)

// goldenSeed seeds the golden exposure (cli.DefaultExposure) and its
// trigger, as `adaptstream -seed 7` runs them.
const goldenSeed = 7

// driftTolDeg bounds how far int8 may move a float32 localization: INT8
// quantization can push ring probabilities across the background
// threshold, which perturbs the fit (DESIGN.md "Inference backends").
const driftTolDeg = 2.0

// trainGoldenBundle trains, in process, the bundle
// `adapttrain -bursts 1 -epochs 3 -quantize -quant-mode ptq` writes.
func trainGoldenBundle(t *testing.T) *models.Bundle {
	t.Helper()
	const seed, bursts, epochs = 7, 1, 3
	m := adapt.TrainModels(adapt.TrainingQuantizable(adapt.Training{
		Seed: seed, BurstsPerAngle: bursts, Epochs: epochs, WithPolar: true,
	}))
	gen := datagen.DefaultConfig(seed)
	gen.BurstsPerAngle = bursts
	qopts := models.DefaultQuantizeOptions(seed + 2)
	qopts.Mode = models.ModePTQ
	qopts.QATEpochs = min(qopts.QATEpochs, epochs)
	int8net, _, err := models.QuantizeBackground(m, datagen.Generate(gen), qopts)
	if err != nil {
		t.Fatal(err)
	}
	m.Int8 = int8net
	return m
}

// TestCrossPathEquivalence asserts that an alert does not depend on the
// path that made it, nor on the worker count. In every cell of workers
// {1, 4} × {float32, int8} the reference is a live processor that journals the golden exposure and
// attaches sky maps; stream.Run, journal replay after a torn tail, a
// skewed 3-way split merged back, and the ground copy of a 10% lossy
// downlink must all give its alert lines byte for byte. /v1/replay, direct
// and through the router, attaches no maps, so it must give the lines of
// the same run without maps. Across backends the trigger decisions are
// identical and localization moves by at most driftTolDeg.
func TestCrossPathEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	events, err := cli.DefaultExposure.Simulate(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	rate := cli.CalibrateRate(goldenSeed)
	bundle := trainGoldenBundle(t)

	live := map[pipeline.Backend][]stream.Record{}
	for _, backend := range []pipeline.Backend{pipeline.BackendFloat32, pipeline.BackendInt8} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				cfg := stream.DefaultConfig(rate)
				cfg.Seed = goldenSeed
				cfg.Bundle = bundle
				cfg.Backend = backend
				cfg.Workers = workers
				recs := checkPaths(t, cfg, events)
				if ref, ok := live[backend]; ok && !bytes.Equal(jsonLines(t, recs), jsonLines(t, ref)) {
					t.Errorf("%s alerts depend on the worker count", backend)
				}
				live[backend] = recs
			})
		}
	}

	f32, i8 := live[pipeline.BackendFloat32], live[pipeline.BackendInt8]
	if len(f32) == 0 || len(i8) != len(f32) {
		t.Fatalf("alert counts: float32 %d, int8 %d", len(f32), len(i8))
	}
	for k, a := range f32 {
		b := i8[k]
		if a.Seq != b.Seq || a.TriggerS != b.TriggerS || a.Significance != b.Significance ||
			a.BackgroundRateHz != b.BackgroundRateHz || a.NEvents != b.NEvents || a.OK != b.OK {
			t.Errorf("alert %d: int8 changed a trigger decision:\n%+v\n%+v", k, a, b)
			continue
		}
		if !a.OK {
			continue
		}
		dot := a.Dir[0]*b.Dir[0] + a.Dir[1]*b.Dir[1] + a.Dir[2]*b.Dir[2]
		if drift := math.Acos(math.Max(-1, math.Min(1, dot))) * 180 / math.Pi; drift > driftTolDeg {
			t.Errorf("alert %d: float32 -> int8 drift %.3f° exceeds %g°", k, drift, driftTolDeg)
		}
	}
}

// checkPaths runs every path of one matrix cell and returns the live
// reference records.
func checkPaths(t *testing.T, cfg stream.Config, events []*detector.Event) []stream.Record {
	dir := t.TempDir()
	liveDir := filepath.Join(dir, "live")
	mapCfg := cfg
	mapCfg.SkyMap = true

	lcfg := mapCfg
	lcfg.Journal = openJournal(t, liveDir)
	liveRecs := ingest(t, lcfg, events)
	if err := lcfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for i, rec := range liveRecs {
		if rec.OK && rec.SkyMapB64 == "" {
			t.Errorf("alert %d: localized without a sky map", i)
		}
		if rec.OK {
			mapped++
		}
	}
	if mapped == 0 {
		t.Fatal("the golden exposure raised no localized alert")
	}
	want := jsonLines(t, liveRecs)
	journal := journalBytes(t, liveDir)
	same := func(path string, got []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from the live run:\n got %s\nwant %s", path, got, want)
		}
	}

	// A journaling processor analyzes each event in its journaled form
	// (evio stores hit fields as float32), so stream.Run runs on the events
	// as recorded.
	recorded := recordedEvents(t, journal)
	same("stream.Run", jsonLines(t, recordsOf(stream.Run(mapCfg, recorded))))

	// Split three ways with clock skew, merge back with the offsets into a
	// fused journal, and replay that journal.
	skews := []float64{0.001953125, 0, -0.0009765625}
	parts := make([]string, len(skews))
	for i := range parts {
		parts[i] = filepath.Join(dir, fmt.Sprintf("part%d", i))
	}
	if _, err := merge.SplitJournal(liveDir, parts, skews, 42); err != nil {
		t.Fatal(err)
	}
	var mcfg merge.Config
	for i, part := range parts {
		feed, err := merge.OpenJournal(part)
		if err != nil {
			t.Fatal(err)
		}
		mcfg.Sources = append(mcfg.Sources, merge.Source{Name: fmt.Sprintf("s%d", i), OffsetSec: skews[i], Feed: feed})
	}
	merger, err := merge.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	fusedDir := filepath.Join(dir, "fused")
	fcfg := mapCfg
	fcfg.Journal = openJournal(t, fusedDir)
	p := stream.New(fcfg)
	same("split+merge", jsonLines(t, collect(t, p, func() error {
		defer p.Close()
		return merger.Run(p.Ingest)
	})))
	if err := fcfg.Journal.Close(); err != nil {
		t.Fatal(err)
	}
	same("fused-journal replay", jsonLines(t, replay(t, mapCfg, fusedDir)))

	// The alerts and the journal through a 10% lossy downlink.
	groundDir := filepath.Join(dir, "ground")
	downlinkSession(t, groundDir, liveRecs, liveDir)
	if !bytes.Equal(journalBytes(t, filepath.Join(groundDir, "journal")), journal) {
		t.Error("ground journal differs from the onboard journal")
	}
	ground, err := os.ReadFile(filepath.Join(groundDir, "alerts.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	same("ground alerts.jsonl", ground)
	same("ground-journal replay", jsonLines(t, replay(t, mapCfg, filepath.Join(groundDir, "journal"))))

	// /v1/replay and the router, against the same run without maps.
	noMaps := jsonLines(t, recordsOf(stream.Run(cfg, recorded)))
	checkServed(t, cfg, journal, noMaps)

	// Crash mid-append: tear the journal tail, then replay twice.
	tearTail(t, liveDir)
	for i := 0; i < 2; i++ {
		same("torn-journal replay", jsonLines(t, replay(t, mapCfg, liveDir)))
	}
	return liveRecs
}

// checkServed posts the journal to /v1/replay on one replica, then the
// same request through a router over two: a miss, then a hit, each with
// the replica's bytes.
func checkServed(t *testing.T, cfg stream.Config, journal, want []byte) {
	t.Helper()
	var urls []string
	for i := 0; i < 2; i++ {
		inst := adapt.DefaultInstrument()
		inst.Workers = cfg.Workers
		inst.Backend = cfg.Backend
		srv := serve.New(serve.Config{Instrument: &inst, Bundle: cfg.Bundle, Backend: cfg.Backend})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	rt, err := router.New(router.Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt.Handler())
	t.Cleanup(rts.Close)

	q := "/v1/replay?canonical=1&seed=" + strconv.Itoa(goldenSeed) +
		"&bkg_rate=" + strconv.FormatFloat(cfg.InitialRate, 'g', -1, 64)
	direct, _ := postJournal(t, urls[0]+q, journal)
	var rr serve.ReplayResponse
	if err := json.Unmarshal(direct, &rr); err != nil {
		t.Fatalf("/v1/replay: %v: %s", err, direct)
	}
	if got := jsonLines(t, rr.Alerts); !bytes.Equal(got, want) {
		t.Errorf("/v1/replay diverged from the run without maps:\n got %s\nwant %s", got, want)
	}
	for _, wantCache := range []string{"miss", "hit"} {
		routed, cache := postJournal(t, rts.URL+q, journal)
		if cache != wantCache {
			t.Errorf("routed /v1/replay cache state %q, want %q", cache, wantCache)
		}
		if !bytes.Equal(routed, direct) {
			t.Errorf("routed /v1/replay (%s) differs from the replica's bytes", wantCache)
		}
	}
}

// downlinkSession sends the alerts, then the journal as delta-codec
// backfill, through a 10% lossy emulated downlink into a DirSink at
// groundDir.
func downlinkSession(t *testing.T, groundDir string, alerts []stream.Record, journalDir string) {
	t.Helper()
	sink, err := downlink.NewDirSink(groundDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := downlink.NewSession(downlink.Config{
		BudgetBytesPerSec: 65536,
		Seed:              7,
		Loss:              downlink.LossProfile{DropProb: 0.10},
		OnMessage:         sink.OnMessage,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range alerts {
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Enqueue(downlink.ClassAlert, blob); err != nil {
			t.Fatal(err)
		}
	}
	var records [][]byte
	if err := flightlog.Replay(journalDir, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(records); lo += 4096 {
		enc, err := downlink.EncodeRecords(records[lo:min(lo+4096, len(records))], downlink.CodecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Enqueue(downlink.ClassJournal, enc); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Flush(86400) {
		t.Fatal("downlink did not drain")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Retransmits == 0 || st.FramesDropped == 0 {
		t.Errorf("a 10%% lossy link cost nothing: %d retransmits, %d frames dropped", st.Retransmits, st.FramesDropped)
	}
}

func openJournal(t *testing.T, dir string) *flightlog.Journal {
	t.Helper()
	j, err := flightlog.Open(flightlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// ingest feeds events to a live processor built from cfg and returns its
// alert records.
func ingest(t *testing.T, cfg stream.Config, events []*detector.Event) []stream.Record {
	t.Helper()
	p := stream.New(cfg)
	return collect(t, p, func() error {
		for _, ev := range events {
			p.Ingest(ev)
		}
		p.Close()
		return nil
	})
}

// replay replays the journal at dir through a processor built from cfg.
func replay(t *testing.T, cfg stream.Config, dir string) []stream.Record {
	t.Helper()
	p := stream.New(cfg)
	return collect(t, p, func() error {
		_, err := stream.ReplayJournal(dir, p)
		return err
	})
}

// collect drains p's alerts while feed runs (feed must close p) and
// returns their records; a feed error fails the test.
func collect(t *testing.T, p *stream.Processor, feed func() error) []stream.Record {
	t.Helper()
	done := make(chan []stream.Record)
	go func() {
		var out []stream.Record
		for a := range p.Alerts() {
			out = append(out, a.Record())
		}
		done <- out
	}()
	err := feed()
	recs := <-done
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func recordsOf(alerts []stream.Alert) []stream.Record {
	out := make([]stream.Record, len(alerts))
	for i := range alerts {
		out[i] = alerts[i].Record()
	}
	return out
}

// jsonLines encodes records as the alert files do: one JSON line each.
func jsonLines(t *testing.T, recs []stream.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// recordedEvents decodes the events a journal body holds.
func recordedEvents(t *testing.T, journal []byte) []*detector.Event {
	t.Helper()
	var events []*detector.Event
	if _, err := flightlog.ScanStream(journal, func(p []byte) error {
		evs, err := evio.Unmarshal(p)
		events = append(events, evs...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return events
}

// journalSegments lists a journal directory's segment files in order.
func journalSegments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.flog"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	return segs
}

// journalBytes concatenates a journal's segments: the /v1/replay body.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	var all []byte
	for _, seg := range journalSegments(t, dir) {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// tearTail appends a partial record to the journal's last segment, as a
// crash mid-append leaves it.
func tearTail(t *testing.T, dir string) {
	t.Helper()
	segs := journalSegments(t, dir)
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
}

// postJournal POSTs a journal body and returns the response bytes and the
// router's cache header.
func postJournal(t *testing.T, url string, body []byte) ([]byte, string) {
	t.Helper()
	resp, err := http.Post(url, serve.ContentTypeFlightLog, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, b)
	}
	return b, resp.Header.Get("X-Adapt-Router-Cache")
}
