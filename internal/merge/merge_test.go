package merge

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// tick makes a hit-less event at time t: the trigger counts it, the
// reconstruction rejects it, so merge+trigger behavior can be tested
// without paying for localization.
func tick(t float64) *detector.Event { return &detector.Event{ArrivalTime: t} }

// ticksExposure builds a deterministic exposure of hit-less events: a
// steady 2 kHz background over [0, 2) with a 20 kHz burst in
// [0.9, 1.0) — enough density contrast to fire the default trigger.
func ticksExposure() []*detector.Event {
	var out []*detector.Event
	for t := 0.0; t < 2.0; t += 1.0 / 2000 {
		out = append(out, tick(t))
	}
	for t := 0.9; t < 1.0; t += 1.0 / 20000 {
		out = append(out, tick(t))
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].ArrivalTime < out[j].ArrivalTime })
	return out
}

// runMerge drives a Merger and collects the fused events.
func runMerge(t *testing.T, cfg Config) []*detector.Event {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out []*detector.Event
	if err := m.Run(func(ev *detector.Event) { out = append(out, ev) }); err != nil {
		t.Fatalf("merge: %v", err)
	}
	return out
}

// triggerRecords runs the streaming trigger over events and returns the
// downlink records — the bitwise comparison unit of the merge contract.
func triggerRecords(events []*detector.Event, rate float64, workers int) []stream.Record {
	cfg := stream.DefaultConfig(rate)
	cfg.Workers = workers
	cfg.Seed = 7
	var out []stream.Record
	for _, a := range stream.Run(cfg, events) {
		out = append(out, a.Record())
	}
	return out
}

// writeJournal appends one record per event to a fresh journal at dir.
func writeJournal(t *testing.T, dir string, events []*detector.Event) {
	t.Helper()
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
}

// readJournalEvents collects a journal's events through the same feed the
// merge uses, so reference and merged runs see identical (evio
// round-tripped) inputs.
func readJournalEvents(t *testing.T, dir string) []*detector.Event {
	t.Helper()
	f, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []*detector.Event
	for {
		ev, err := f.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

func TestMergeOrdersSkewedSlices(t *testing.T) {
	events := ticksExposure()
	// Deal events round-robin into 3 slices with distinct exact skews,
	// falling back to the next lane when a skew is not exactly invertible
	// for an event (small times cannot absorb large offsets; see SkewTime).
	skews := []float64{0.25, 0, -0.125}
	slices := make([][]*detector.Event, 3)
	for i, ev := range events {
		for d := 0; ; d++ {
			lane := (i + d) % 3
			s, err := SkewTime(ev.ArrivalTime, skews[lane])
			if err != nil {
				continue
			}
			c := *ev
			c.ArrivalTime = s
			slices[lane] = append(slices[lane], &c)
			break
		}
	}
	reg := obs.NewRegistry()
	cfg := Config{Metrics: reg}
	for i, sl := range slices {
		cfg.Sources = append(cfg.Sources, Source{
			Name:      fmt.Sprintf("s%d", i),
			OffsetSec: skews[i],
			Feed:      NewSlice(sl),
		})
	}
	fused := runMerge(t, cfg)
	if len(fused) != len(events) {
		t.Fatalf("fused %d events, want %d", len(fused), len(events))
	}
	for i, ev := range fused {
		if ev.ArrivalTime != events[i].ArrivalTime {
			t.Fatalf("event %d: corrected time %v, want %v", i, ev.ArrivalTime, events[i].ArrivalTime)
		}
	}
	if got := reg.Counter(CtrEventsOut).Load(); got != int64(len(events)) {
		t.Errorf("%s = %d, want %d", CtrEventsOut, got, len(events))
	}
	if got := reg.Counter(SrcMetric("s1", "events")).Load(); got != int64(len(slices[1])) {
		t.Errorf("per-source events = %d, want %d", got, len(slices[1]))
	}
}

// TestMergeDeterministicAcrossInterleavings is the heart of the merge
// contract: the fused order is a pure function of the sources' contents.
// Live push feeds with adversarial arrival interleavings must fuse to the
// same sequence as quiet in-memory feeds.
func TestMergeDeterministicAcrossInterleavings(t *testing.T) {
	events := ticksExposure()
	slices := make([][]*detector.Event, 3)
	rng := xrand.New(5)
	for _, ev := range events {
		lane := rng.IntN(3)
		slices[lane] = append(slices[lane], ev)
	}
	ref := runMerge(t, Config{Sources: []Source{
		{Feed: NewSlice(slices[0])},
		{Feed: NewSlice(slices[1])},
		{Feed: NewSlice(slices[2])},
	}})

	for trial := 0; trial < 3; trial++ {
		feeds := make([]*PushFeed, 3)
		cfg := Config{BufferEvents: 8} // tiny buffers force backpressure
		for i := range feeds {
			feeds[i] = NewPushFeed(4)
			cfg.Sources = append(cfg.Sources, Source{Feed: feeds[i]})
		}
		for i := range feeds {
			go func(lane, trial int) {
				for n, ev := range slices[lane] {
					// Vary the pushing cadence per trial to vary arrival order.
					if (n+trial+lane)%17 == 0 {
						time.Sleep(time.Duration(lane+trial) * 100 * time.Microsecond)
					}
					feeds[lane].Ingest(ev)
				}
				feeds[lane].CloseInput()
			}(i, trial)
		}
		got := runMerge(t, cfg)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d events, want %d", trial, len(got), len(ref))
		}
		for i := range got {
			if got[i] != ref[i] { // pointer identity: the very same events, same order
				t.Fatalf("trial %d: order diverged at %d", trial, i)
			}
		}
	}
}

// TestSplitMergeBitwiseAlerts is the acceptance property: merging k
// randomly-sliced, clock-skewed journals of one exposure produces alert
// records bitwise identical to the unsliced run, at any worker count.
func TestSplitMergeBitwiseAlerts(t *testing.T) {
	events := ticksExposure()
	const rate = 2000.0
	src := filepath.Join(t.TempDir(), "src")
	writeJournal(t, src, events)
	ref := triggerRecords(readJournalEvents(t, src), rate, 1)
	if len(ref) == 0 {
		t.Fatal("reference run produced no alerts; exposure too quiet for the test to mean anything")
	}

	cases := []struct {
		k       int
		skews   []float64
		workers int
	}{
		{k: 2, skews: nil, workers: 1},
		{k: 3, skews: []float64{0.001953125, 0, -0.0009765625}, workers: 1},
		{k: 3, skews: []float64{0.001953125, 0, -0.0009765625}, workers: 4},
		{k: 5, skews: []float64{0.5, -0.25, 0.125, 0, -0.0625}, workers: 2},
	}
	for ci, tc := range cases {
		dirs := make([]string, tc.k)
		base := filepath.Join(t.TempDir(), fmt.Sprintf("case%d", ci))
		for i := range dirs {
			dirs[i] = filepath.Join(base, fmt.Sprintf("part%d", i))
		}
		st, err := SplitJournal(src, dirs, tc.skews, uint64(ci)+3)
		if err != nil {
			t.Fatalf("case %d: split: %v", ci, err)
		}
		if st.Records != len(events) {
			t.Fatalf("case %d: split read %d records, want %d", ci, st.Records, len(events))
		}
		cfg := Config{}
		for i, dir := range dirs {
			feed, err := OpenJournal(dir)
			if err != nil {
				t.Fatalf("case %d: %v", ci, err)
			}
			off := 0.0
			if len(tc.skews) > 0 {
				off = tc.skews[i]
			}
			cfg.Sources = append(cfg.Sources, Source{OffsetSec: off, Feed: feed})
		}
		fused := runMerge(t, cfg)
		got := triggerRecords(fused, rate, tc.workers)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("case %d (k=%d workers=%d): alert records diverged from single-source run\n got %+v\nwant %+v",
				ci, tc.k, tc.workers, got, ref)
		}
	}
}

// TestMergeSurfacesTornTail: a source journal that ends mid-record (crash
// during append) must merge its durable prefix and surface the truncation,
// not fail or silently pass as complete.
func TestMergeSurfacesTornTail(t *testing.T) {
	events := ticksExposure()[:200]
	dirA := filepath.Join(t.TempDir(), "a")
	dirB := filepath.Join(t.TempDir(), "b")
	nA := 0
	var slA, slB []*detector.Event
	for i, ev := range events {
		if i%2 == 0 {
			slA = append(slA, ev)
			nA++
		} else {
			slB = append(slB, ev)
		}
	}
	writeJournal(t, dirA, slA)
	writeJournal(t, dirB, slB)

	// Tear the tail of A's last segment.
	segs, err := filepath.Glob(filepath.Join(dirA, "journal-*.flog"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("glob: %v (%d segments)", err, len(segs))
	}
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	const torn = 5
	if err := os.Truncate(last, fi.Size()-torn); err != nil {
		t.Fatal(err)
	}

	feedA, err := OpenJournal(dirA)
	if err != nil {
		t.Fatal(err)
	}
	feedB, err := OpenJournal(dirB)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	m, err := New(Config{
		Sources: []Source{{Name: "a", Feed: feedA}, {Name: "b", Feed: feedB}},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := m.Run(func(*detector.Event) { n++ }); err != nil {
		t.Fatalf("a torn tail is accounting, not failure: %v", err)
	}
	// The torn record itself (and nothing else) is missing.
	if n != len(events)-1 {
		t.Errorf("merged %d events, want %d", n, len(events)-1)
	}
	st := m.Stats()
	if st[0].TruncatedBytes == 0 {
		t.Error("source a: torn tail not surfaced in stats")
	}
	if got := reg.Counter(SrcMetric("a", "truncated_bytes")).Load(); got != st[0].TruncatedBytes {
		t.Errorf("truncated_bytes metric = %d, want %d", got, st[0].TruncatedBytes)
	}
	if st[1].TruncatedBytes != 0 {
		t.Errorf("source b: spurious truncation %d", st[1].TruncatedBytes)
	}
}

// TestMergeStallAgeOut: a silent source must age out of the watermark
// instead of freezing the merge, and its late events must be dropped and
// counted, never reordered.
func TestMergeStallAgeOut(t *testing.T) {
	live := NewPushFeed(64)
	mute := NewPushFeed(64)
	reg := obs.NewRegistry()
	m, err := New(Config{
		Sources:      []Source{{Name: "live", Feed: live}, {Name: "mute", Feed: mute}},
		StallTimeout: 30 * time.Millisecond,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	var fused []*detector.Event
	done := make(chan error)
	go func() { done <- m.Run(func(ev *detector.Event) { fused = append(fused, ev) }) }()

	// The mute source shows one early event, then goes silent; the live
	// source keeps streaming. Without age-out the merge would freeze after
	// the mute head is consumed.
	mute.Ingest(tick(0.0))
	for i := 1; i <= 50; i++ {
		live.Ingest(tick(float64(i)))
	}
	// Give the merge time to drain the live feed past the stall deadline.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(SrcMetric("mute", "stalls")).Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("merge never aged the silent source out")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The mute source wakes up far behind the watermark.
	mute.Ingest(tick(0.5))
	mute.CloseInput()
	live.CloseInput()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	for i := 1; i < len(fused); i++ {
		if fused[i].ArrivalTime < fused[i-1].ArrivalTime {
			t.Fatalf("output out of order at %d: %v after %v", i, fused[i].ArrivalTime, fused[i-1].ArrivalTime)
		}
	}
	st := m.Stats()
	if st[1].Stalls == 0 {
		t.Error("mute source never counted a stall")
	}
	if st[1].LateDropped == 0 {
		t.Error("late event was not dropped+counted")
	}
	if got := m.LateDropped(); got != st[1].LateDropped {
		t.Errorf("global late drops %d != source late drops %d", got, st[1].LateDropped)
	}
}

// TestMergeSourceErrorDoesNotPoisonOthers: one failing source surfaces its
// error from Run, while healthy sources still merge to completion.
func TestMergeSourceErrorDoesNotPoisonOthers(t *testing.T) {
	bad := &errFeed{after: 3, err: errors.New("readout fault")}
	good := NewSlice(ticksExposure()[:100])
	m, err := New(Config{Sources: []Source{{Name: "bad", Feed: bad}, {Name: "good", Feed: good}}})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	runErr := m.Run(func(*detector.Event) { n++ })
	if runErr == nil {
		t.Fatal("source error not surfaced")
	}
	if !strings.Contains(runErr.Error(), "bad") || !strings.Contains(runErr.Error(), "readout fault") {
		t.Errorf("error %q does not name the failed source", runErr)
	}
	if n < 100 {
		t.Errorf("healthy source only contributed %d events", n)
	}
	if st := m.Stats(); st[0].Err == nil {
		t.Error("failed source's stats carry no error")
	}
}

// errFeed yields `after` ticks then fails.
type errFeed struct {
	after int
	n     int
	err   error
}

func (f *errFeed) Next() (*detector.Event, error) {
	if f.n >= f.after {
		return nil, f.err
	}
	f.n++
	return tick(float64(f.n)), nil
}

func (f *errFeed) Close() error { return nil }

func TestSkewTimeExactInversion(t *testing.T) {
	rng := xrand.New(11)
	offsets := []float64{0.001953125, -0.0009765625, 0.003, -0.0017, 1.5, -2.25}
	checked := 0
	var lastT, lastS float64
	lastOff := math.NaN()
	for i := 0; i < 20000; i++ {
		tt := rng.Float64() * 4 // spans binade boundaries at 0.5, 1, 2
		off := offsets[i%len(offsets)]
		s, err := SkewTime(tt, off)
		if err != nil {
			continue // legitimately non-invertible across a binade jump
		}
		checked++
		if s-off != tt {
			t.Fatalf("SkewTime(%v, %v) = %v: inversion gives %v", tt, off, s, s-off)
		}
		// The canonical (smallest) preimage can sit up to ~ulp(t)/2 from
		// t+off when the offset dwarfs the result, so bound the stray by the
		// coarser of the two grids.
		big := math.Max(math.Abs(tt), math.Abs(tt+off))
		ulp := math.Nextafter(big, math.Inf(1)) - big
		if math.Abs(s-(tt+off)) > 8*ulp {
			t.Fatalf("SkewTime(%v, %v) strayed to %v", tt, off, s)
		}
		if off == lastOff && tt > lastT && s <= lastS {
			t.Fatalf("SkewTime not monotone: t %v>%v but s %v<=%v (offset %v)", tt, lastT, s, lastS, off)
		}
		if off == lastOff {
			if tt > lastT {
				lastT, lastS = tt, s
			}
		} else {
			lastOff, lastT, lastS = off, tt, s
		}
	}
	if checked < 15000 {
		t.Fatalf("only %d/20000 skews invertible; SkewTime is broken", checked)
	}
}

func TestSplitJournalRefusesDirtyOutput(t *testing.T) {
	src := filepath.Join(t.TempDir(), "src")
	writeJournal(t, src, ticksExposure()[:50])
	out := []string{filepath.Join(t.TempDir(), "p0"), src} // src is non-empty
	if _, err := SplitJournal(src, out, nil, 1); err == nil {
		t.Fatal("split into a non-empty journal dir must fail")
	}
}

// BenchmarkMergeKWay measures fused-stream throughput (events/s) for a
// k-way merge of in-memory sources — the merge loop's own cost, no
// trigger attached.
func BenchmarkMergeKWay(b *testing.B) {
	for _, k := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			const perSource = 20000
			slices := make([][]*detector.Event, k)
			for i := range slices {
				slices[i] = make([]*detector.Event, perSource)
				for n := range slices[i] {
					slices[i][n] = tick(float64(n)*float64(k) + float64(i))
				}
			}
			b.SetBytes(int64(k * perSource))
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				cfg := Config{}
				for i := range slices {
					cfg.Sources = append(cfg.Sources, Source{Feed: NewSlice(slices[i])})
				}
				m, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				if err := m.Run(func(*detector.Event) { n++ }); err != nil {
					b.Fatal(err)
				}
				if n != k*perSource {
					b.Fatalf("fused %d, want %d", n, k*perSource)
				}
			}
		})
	}
}

func TestOnLateDropObservesDroppedEvents(t *testing.T) {
	// Source 1 violates its own time order with a backward clock step: the
	// out-of-order events fall behind the watermark and must be surfaced
	// through the OnLateDrop hook before being discarded.
	a := []*detector.Event{
		{ArrivalTime: 0.10}, {ArrivalTime: 0.20}, {ArrivalTime: 0.30}, {ArrivalTime: 0.40},
	}
	b := []*detector.Event{
		{ArrivalTime: 0.15}, {ArrivalTime: 0.35}, {ArrivalTime: 0.21}, {ArrivalTime: 0.22}, {ArrivalTime: 0.45},
	}
	var lateTimes []float64
	cfg := Config{
		Sources: []Source{
			{Name: "a", Feed: NewSlice(a)},
			{Name: "b", Feed: NewSlice(b)},
		},
		OnLateDrop: func(ev *detector.Event) { lateTimes = append(lateTimes, ev.ArrivalTime) },
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var fused []float64
	if err := m.Run(func(ev *detector.Event) { fused = append(fused, ev.ArrivalTime) }); err != nil {
		t.Fatal(err)
	}
	if m.LateDropped() != int64(len(lateTimes)) {
		t.Fatalf("hook saw %d drops, merger counted %d", len(lateTimes), m.LateDropped())
	}
	if len(lateTimes) != 2 || lateTimes[0] != 0.21 || lateTimes[1] != 0.22 {
		t.Fatalf("late-dropped times = %v, want [0.21 0.22]", lateTimes)
	}
	for i := 1; i < len(fused); i++ {
		if fused[i] < fused[i-1] {
			t.Fatalf("fused output out of order at %d: %v", i, fused)
		}
	}
}
