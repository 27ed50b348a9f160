package stream

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/models/modelstest"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// segmentBytes concatenates a journal directory's segments in order.
func segmentBytes(t *testing.T, dir string) []byte {
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

// journaledRun feeds events to a journaling processor with a 4096-slot
// queue and returns the journal's bytes, its stats before Close and the
// alert records. With full, the consumer is held on the first event until
// the producer has filled the queue, so the next batch it drains is a full
// one; otherwise the producer waits until each event is admitted before
// it offers the next, so every batch holds one event.
func journaledRun(t *testing.T, events []*detector.Event, meanRate float64, full bool) ([]byte, flightlog.Stats, []Record) {
	t.Helper()
	dir := t.TempDir()
	j, err := flightlog.Open(flightlog.Options{Dir: dir, SegmentBytes: 256 << 10,
		Sync: flightlog.SyncInterval, SyncEveryBytes: 48 << 10})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(meanRate)
	cfg.Seed = 42
	cfg.Journal = j
	cfg.QueueEvents = 4096
	cfg.AlertBuffer = maxAlerts(events, cfg.BurstWindowSec)
	admitted, release := make(chan struct{}, 1), make(chan struct{})
	held := false
	cfg.Admit = func(*detector.Event) bool {
		switch {
		case !full:
			admitted <- struct{}{}
		case !held:
			held = true
			admitted <- struct{}{}
			<-release
		}
		return true
	}
	p := New(cfg)
	if full {
		p.Ingest(events[0])
		<-admitted
		for _, ev := range events[1 : 1+cfg.QueueEvents] {
			p.Ingest(ev)
		}
		if len(p.in) != cap(p.in) {
			t.Fatalf("queue holds %d of %d events", len(p.in), cap(p.in))
		}
		close(release)
		for _, ev := range events[1+cfg.QueueEvents:] {
			p.Ingest(ev)
		}
	} else {
		for _, ev := range events {
			p.Ingest(ev)
			<-admitted
		}
	}
	p.Close()
	var recs []Record
	for a := range p.Alerts() {
		recs = append(recs, a.Record())
	}
	st := j.Stats()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return segmentBytes(t, dir), st, recs
}

// TestJournalBatchesMatchSingleEvents: a journaling processor that drains
// a full queue as one batch and one fed event by event write the same
// journal bytes with the same fsyncs, and raise the same alerts; only the
// number of writes differs.
func TestJournalBatchesMatchSingleEvents(t *testing.T) {
	events, meanRate := simSession(t, 7)
	if len(events) <= 4096 {
		t.Fatalf("session has %d events, too few to fill the queue", len(events))
	}
	oneJ, one, oneAlerts := journaledRun(t, events, meanRate, false)
	fullJ, full, fullAlerts := journaledRun(t, events, meanRate, true)
	if !bytes.Equal(oneJ, fullJ) {
		t.Fatal("journal drained in batches differs from the one written event by event")
	}
	if one.Appended != int64(len(events)) || full.Appended != one.Appended {
		t.Errorf("appended %d in batches, %d one by one, want %d", full.Appended, one.Appended, len(events))
	}
	if full.Syncs != one.Syncs || one.Syncs == 0 {
		t.Errorf("%d fsyncs in batches, %d one by one", full.Syncs, one.Syncs)
	}
	if one.Writes != one.Appended || full.Writes >= one.Writes-int64(4095) {
		t.Errorf("%d writes in batches, %d one by one, for %d records", full.Writes, one.Writes, one.Appended)
	}
	if len(oneAlerts) == 0 || len(fullAlerts) != len(oneAlerts) {
		t.Fatalf("%d alerts in batches, %d one by one", len(fullAlerts), len(oneAlerts))
	}
	for i := range oneAlerts {
		if fullAlerts[i] != oneAlerts[i] {
			t.Errorf("alert %d differs:\nbatches:  %+v\none by one: %+v", i, fullAlerts[i], oneAlerts[i])
		}
	}
}

// TestUnmarshalableEventProcessedUnjournaled: an event with more hits than
// evio can record fails to marshal. It counts as a journal error, the rest
// of its batch is journaled, and the trigger still sees it, as it came.
func TestUnmarshalableEventProcessedUnjournaled(t *testing.T) {
	events := steadyTicks(0, 1, 1000)
	huge := &detector.Event{ArrivalTime: events[500].ArrivalTime, Hits: make([]detector.Hit, 1<<16)}
	events = append(events[:501], append([]*detector.Event{huge}, events[501:]...)...)
	dir := t.TempDir()
	j, err := flightlog.Open(flightlog.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(1000)
	cfg.Journal = j
	cfg.Metrics = obs.NewRegistry()
	cfg.BufferEvents = len(events)
	p := New(cfg)
	for _, ev := range events {
		p.Ingest(ev)
	}
	p.Close()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n := cfg.Metrics.Counter(CtrJournalErrors).Load(); n != 1 {
		t.Errorf("%d journal errors, want 1", n)
	}
	if n := cfg.Metrics.Counter(CtrIngested).Load(); n != int64(len(events)) {
		t.Errorf("%d events ingested, want %d", n, len(events))
	}
	var want []byte
	for _, ev := range events {
		if ev != huge {
			want = append(want, mustMarshal(t, ev)...)
		}
	}
	var got []byte
	if err := flightlog.Replay(dir, func(rec []byte) error {
		got = append(got, rec...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("journal differs from the events other than the oversized one, one record each")
	}
	window := p.ring.snapshot()
	if len(window) != len(events) || window[501] != huge {
		t.Fatalf("the trigger did not see the oversized event as it came")
	}
	for i, ev := range window {
		if i != 501 && ev == events[i] {
			t.Fatalf("event %d reached the trigger without its journaled form", i)
		}
	}
}

func mustMarshal(t *testing.T, ev *detector.Event) []byte {
	t.Helper()
	b, err := evio.Marshal([]*detector.Event{ev})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// probeClassifier wraps a background classifier and records, at the first
// call of each alert's run, how many records the journal holds and how
// many fsyncs it has issued. Inference shards may call it concurrently.
type probeClassifier struct {
	pipeline.BkgClassifier
	j        *flightlog.Journal
	triggers *obs.Counter

	mu   sync.Mutex
	seen map[int64]flightlog.Stats // by alert index: triggers so far − 1
}

func (c *probeClassifier) Probs(x *nn.Tensor) []float32 {
	c.mu.Lock()
	i := c.triggers.Load() - 1
	if _, ok := c.seen[i]; !ok {
		c.seen[i] = c.j.Stats()
	}
	c.mu.Unlock()
	return c.BkgClassifier.Probs(x)
}

// TestJournalBeforeStep: under SyncAlways, by the time the event that
// closes a burst window fires the alert, it and every event before it are
// appended and fsynced, however the queue was batched.
func TestJournalBeforeStep(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := modelstest.QuantBundle(t, 81)
	events, meanRate := simSession(t, 13)
	j, err := flightlog.Open(flightlog.Options{Dir: t.TempDir(), Sync: flightlog.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cls, err := pipeline.NewClassifier(pipeline.BackendFloat32, b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(meanRate)
	cfg.Bundle = b
	cfg.Journal = j
	cfg.Metrics = obs.NewRegistry()
	probe := &probeClassifier{BkgClassifier: cls, j: j, triggers: cfg.Metrics.Counter(CtrTriggers), seen: map[int64]flightlog.Stats{}}
	cfg.BkgOverride = probe
	alerts := Run(cfg, events)
	if len(alerts) == 0 {
		t.Fatal("no alerts; burst not detected")
	}
	for i, a := range alerts {
		deadline := a.TriggerTime + cfg.BurstWindowSec
		k := sort.Search(len(events), func(k int) bool { return events[k].ArrivalTime >= deadline })
		st, ok := probe.seen[int64(i)]
		if !ok {
			t.Fatalf("alert %d ran no classifier", i)
		}
		need := int64(min(k+1, len(events))) // a window still open at the end fires on Close
		if st.Appended < need || st.Syncs < need {
			t.Errorf("alert %d fired by event %d with %d records appended and %d fsyncs", i, k, st.Appended, st.Syncs)
		}
	}
}

// TestJournalAllocsPerBatch: once its buffers have grown, journaling a
// drained batch allocates the decoded event and hit slabs and nothing per
// event.
func TestJournalAllocsPerBatch(t *testing.T) {
	events := steadyTicks(0, 0.5, 1024)
	for _, ev := range events {
		ev.Hits = make([]detector.Hit, 3)
	}
	j, err := flightlog.Open(flightlog.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := DefaultConfig(1000)
	cfg.Journal = j
	p := New(cfg)
	defer p.Close()
	// Nothing is ingested, so the consumer goroutine stays blocked on the
	// queue and never touches the journaling scratch this test drives.
	batch := make([]*detector.Event, len(events))
	allocs := testing.AllocsPerRun(5, func() {
		copy(batch, events)
		p.journal(batch)
	})
	if allocs > 2 {
		t.Errorf("journaling a batch of %d events allocates %v times, want the 2 slabs", len(events), allocs)
	}
	if batch[0] == events[0] {
		t.Error("the batch was not replaced by its journaled forms")
	}
}
