package downlink

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/flightlog"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// burstSession simulates a flight session with a real burst on top of
// background, mirroring the stream package's test fixture.
func burstSession(t *testing.T, seed uint64) (events []*detector.Event, meanRate float64) {
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

// drainAlerts runs events through a stream processor and collects alerts.
func drainAlerts(cfg stream.Config, events []*detector.Event) []stream.Record {
	var out []stream.Record
	for _, a := range stream.Run(cfg, events) {
		out = append(out, a.Record())
	}
	return out
}

// journalBytes concatenates a journal directory's segments in order.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.flog"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	sort.Strings(segs)
	var all []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// TestJournalDownlinkReplayBitwise is the full mission loop: a live flight
// session journals every admitted event; the journal is batched through
// the delta codec and downlinked over a 10% lossy, reordering link; the
// ground reassembles a byte-identical journal; and replaying that journal
// through a fresh stream processor reproduces the live alert records
// exactly. Loss on the wire must be invisible end to end.
func TestJournalDownlinkReplayBitwise(t *testing.T) {
	events, meanRate := burstSession(t, 7)
	liveDir := t.TempDir()
	j, err := flightlog.Open(flightlog.Options{Dir: liveDir, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.DefaultConfig(meanRate)
	cfg.Seed = 42
	cfg.Journal = j
	live := drainAlerts(cfg, events)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) == 0 {
		t.Fatal("live session produced no alerts")
	}

	// Flight side: batch the journal records through the delta codec and
	// enqueue as journal-class backfill, one message per batch.
	var records [][]byte
	if err := flightlog.Replay(liveDir, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(records) != len(events) {
		t.Fatalf("journal has %d records, want %d", len(records), len(events))
	}

	groundDir := t.TempDir()
	g, err := flightlog.Open(flightlog.Options{Dir: groundDir, SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var downErr error
	sess, err := NewSession(Config{
		BudgetBytesPerSec: 256 << 10,
		Seed:              1234,
		Loss:              LossProfile{DropProb: 0.10, ReorderProb: 0.25, ReorderDelaySec: 0.3},
		OnMessage: func(class Class, _ uint32, payload []byte, _ float64) {
			if class != ClassJournal || downErr != nil {
				return
			}
			recs, err := DecodeRecords(payload)
			if err != nil {
				downErr = err
				return
			}
			for _, rec := range recs {
				if err := g.Append(rec); err != nil {
					downErr = err
					return
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const batchSize = 512
	for lo := 0; lo < len(records); lo += batchSize {
		batch := records[lo:min(lo+batchSize, len(records))]
		enc, err := EncodeRecords(batch, CodecOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Enqueue(ClassJournal, enc); err != nil {
			t.Fatal(err)
		}
	}
	if !sess.Flush(3600) {
		t.Fatal("downlink did not drain")
	}
	if downErr != nil {
		t.Fatal(downErr)
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sess.Stats(); st.Retransmits == 0 {
		t.Fatal("lossy downlink needed no retransmits")
	}

	// The reassembled journal must be byte-identical to the onboard one.
	if !bytes.Equal(journalBytes(t, liveDir), journalBytes(t, groundDir)) {
		t.Fatal("ground journal differs from onboard journal")
	}

	// And replaying it must reproduce the live alerts bitwise, regardless
	// of worker count.
	for _, workers := range []int{1, 4} {
		rcfg := cfg
		rcfg.Journal = nil
		rcfg.Workers = workers
		p := stream.New(rcfg)
		done := make(chan []stream.Record)
		go func() {
			var out []stream.Record
			for a := range p.Alerts() {
				out = append(out, a.Record())
			}
			done <- out
		}()
		if _, err := stream.ReplayJournal(groundDir, p); err != nil {
			t.Fatal(err)
		}
		replayed := <-done
		if len(replayed) != len(live) {
			t.Fatalf("workers=%d: replay produced %d alerts, live %d", workers, len(replayed), len(live))
		}
		for i := range live {
			if replayed[i] != live[i] {
				t.Errorf("workers=%d alert %d: replayed record differs from live", workers, i)
			}
		}
	}
}
