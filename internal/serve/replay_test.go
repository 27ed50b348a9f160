package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/adapt"
	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// journalBody simulates one exposure (background + a burst at t0), records
// it to a flight journal one record per event, and returns the
// concatenated segment bytes — the exact body a ground client would POST —
// plus the journal directory.
func journalBody(t *testing.T, seed uint64, t0 float64) ([]byte, string) {
	t.Helper()
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rng := xrand.New(seed)
	events := bg.Simulate(&det, 1.0, rng)
	burst := detector.Burst{Fluence: 2.0, PolarDeg: 20, AzimuthDeg: 130}
	for _, ev := range detector.SimulateBurst(&det, burst, rng) {
		ev.ArrivalTime += t0
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})

	dir := filepath.Join(t.TempDir(), "fl")
	j, err := flightlog.Open(flightlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		blob, err := evio.Marshal([]*detector.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(blob); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.flog"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob: %v (%d segments)", err, len(segs))
	}
	var body []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		body = append(body, b...)
	}
	return body, dir
}

func postReplay(t *testing.T, ts *httptest.Server, path string, body []byte) (*ReplayResponse, *http.Response) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, ContentTypeFlightLog, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var rr ReplayResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return &rr, resp
}

// TestReplayMatchesDirectStream is the endpoint's determinism acceptance
// test: POSTing a recorded journal reproduces, bitwise, the alert records
// of a direct streaming-trigger run over the same journal with the same
// models — even though the service routes every localization window's NN
// inference through the shared micro-batcher.
func TestReplayMatchesDirectStream(t *testing.T) {
	bundle := tinyBundle(t)
	body, _ := journalBody(t, 7, 0.5)

	srv := New(Config{Bundle: bundle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const rate, seed = 17718, 9
	rr, resp := postReplay(t, ts, "/v1/replay?seed=9&bkg_rate=17718", body)
	if rr == nil {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(rr.Alerts) == 0 {
		t.Fatal("replay produced no alerts; the burst should have triggered")
	}
	if rr.TruncatedBytes != 0 {
		t.Fatalf("clean journal reports %d truncated bytes", rr.TruncatedBytes)
	}
	if !rr.ML {
		t.Fatal("ML bundle was not in the loop")
	}

	// Direct reference: the same events (decoded from the same bytes)
	// through the same trigger configuration, using the bundle's own
	// network instead of the batcher.
	var events []*detector.Event
	if _, err := flightlog.ScanStream(body, func(p []byte) error {
		evs, err := evio.Unmarshal(p)
		if err != nil {
			return err
		}
		events = append(events, evs...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	inst := adapt.DefaultInstrument()
	cfg := stream.DefaultConfig(rate)
	cfg.Recon = inst.Recon
	cfg.Loc = inst.Loc
	cfg.MaxNNIters = inst.MaxNNIters
	cfg.Bundle = bundle
	cfg.Seed = seed
	var want []stream.Record
	for _, a := range stream.Run(cfg, events) {
		want = append(want, a.Record())
	}

	if !reflect.DeepEqual(rr.Alerts, want) {
		t.Errorf("replay alerts diverged from direct stream run\n got %+v\nwant %+v", rr.Alerts, want)
	}
	if rr.Events != len(events) {
		t.Errorf("replay decoded %d events, want %d", rr.Events, len(events))
	}
}

// TestReplayTornTail: a journal cut mid-record (crash during append, or a
// partial downlink) must still replay its durable prefix and report the
// truncation.
func TestReplayTornTail(t *testing.T) {
	body, _ := journalBody(t, 11, 0.5)
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	clean, resp := postReplay(t, ts, "/v1/replay", body)
	if clean == nil {
		t.Fatalf("status %d", resp.StatusCode)
	}
	torn, resp := postReplay(t, ts, "/v1/replay", body[:len(body)-7])
	if torn == nil {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if torn.TruncatedBytes == 0 {
		t.Error("torn tail not reported")
	}
	if torn.Records != clean.Records-1 {
		t.Errorf("torn replay decoded %d records, want %d", torn.Records, clean.Records-1)
	}
}

func TestReplayRejectsGarbage(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for name, body := range map[string][]byte{
		"not-a-journal": []byte("hello"),
		"empty":         {},
	} {
		_, resp := postReplay(t, ts, "/v1/replay", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if r, err := ts.Client().Get(ts.URL + "/v1/replay"); err != nil || r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %v %d, want 405", err, r.StatusCode)
	}
}
