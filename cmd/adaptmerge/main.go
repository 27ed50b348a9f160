// Command adaptmerge fuses several detector-segment event sources — flight
// journals, recorded evio exposures, or live simulated segment feeds —
// into one globally time-ordered stream (internal/merge) and drives the
// streaming trigger pipeline (internal/stream) over the fused sequence,
// emitting one JSON alert record per detected burst.
//
// Sources are declared with repeated -src flags:
//
//	adaptmerge -src journal:./seg0 -src journal:./seg1@0.002 \
//	           -src evio:panel2.evio@-0.001 -alerts merged.jsonl
//
// where the optional @offset suffix (seconds) declares the source's clock
// offset; the merge subtracts it, so the fused stream carries corrected
// times. The fused sequence can be recorded to a single canonical journal
// (-journal): replaying that journal with `adaptstream -replay` reproduces
// the merged run's alerts bitwise, no matter how the sources interleaved.
//
// A split mode slices one journal k ways with injected clock skew — the
// inverse operation, used by tests and the merge-smoke CI job:
//
//	adaptmerge -split 3 -skew 0.002,0,-0.001 -src journal:./fl -out ./parts
//
// And a live mode simulates k detector segments pushing concurrently:
//
//	adaptmerge -sim 3 -exposure 3 -burst-at 1.2 -alerts live.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/adapt"
	"repro/internal/background"
	"repro/internal/buildinfo"
	"repro/internal/detector"
	"repro/internal/flightlog"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// srcSpec is one parsed -src flag.
type srcSpec struct {
	kind   string // "journal" or "evio"
	path   string
	offset float64
}

// srcFlags accumulates repeated -src flags.
type srcFlags []srcSpec

func (s *srcFlags) String() string { return fmt.Sprintf("%d source(s)", len(*s)) }

func (s *srcFlags) Set(v string) error {
	kind, rest, ok := strings.Cut(v, ":")
	if !ok || (kind != "journal" && kind != "evio") {
		return fmt.Errorf("source %q: want journal:DIR or evio:FILE, optionally @offset", v)
	}
	spec := srcSpec{kind: kind, path: rest}
	if path, off, ok := strings.Cut(rest, "@"); ok {
		o, err := strconv.ParseFloat(off, 64)
		if err != nil {
			return fmt.Errorf("source %q: bad offset %q: %v", v, off, err)
		}
		spec.path, spec.offset = path, o
	}
	if spec.path == "" {
		return fmt.Errorf("source %q: empty path", v)
	}
	*s = append(*s, spec)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptmerge: ")

	var srcs srcFlags
	flag.Var(&srcs, "src", "event source, journal:DIR or evio:FILE with optional @clock-offset-seconds (repeatable)")

	// Split mode.
	split := flag.Int("split", 0, "split mode: slice the single -src journal into this many journals under -out")
	out := flag.String("out", "", "split mode: output directory (slices land in part0..partN-1)")
	skews := flag.String("skew", "", "split mode: comma-separated per-slice clock skews in seconds (empty = none)")
	splitSeed := flag.Uint64("split-seed", 1, "split mode: seed for the random record-to-slice assignment")

	// Live-sim mode.
	sim := flag.Int("sim", 0, "live mode: simulate this many detector segments pushing one exposure concurrently")
	exposure := flag.Float64("exposure", 3.0, "live mode: simulated exposure length in seconds")
	burstAt := flag.String("burst-at", "1.2", "live mode: comma-separated burst start times in seconds")
	fluence := flag.Float64("fluence", 2.0, "live mode: fluence of each injected burst in MeV/cm²")
	polar := flag.Float64("polar", 20, "live mode: burst polar angle in degrees")
	azimuth := flag.Float64("azimuth", 130, "live mode: burst azimuth in degrees")

	// Merge tuning.
	buffer := flag.Int("buffer", 1024, "per-source prefetch buffer in events")
	stall := flag.Duration("stall-timeout", 0, "age a silent source out of the watermark after this long (0 = wait forever)")

	// Trigger configuration (mirrors adaptstream).
	seed := flag.Uint64("seed", 1, "simulation and localization seed")
	bkgRate := flag.Float64("bkg-rate", 0, "calibrated background rate in events/s (0 = calibrate from a seeded 1 s background simulation)")
	sigma := flag.Float64("sigma", 8, "trigger significance threshold in Poisson sigma")
	window := flag.Float64("window", 0.1, "trigger sliding-window width in seconds")
	modelPath := flag.String("model", "", "model bundle for the ML pipeline (empty = analytic pipeline)")
	backendName := flag.String("backend", "float32", "inference backend: float32 or int8 (int8 needs a bundle from adapttrain -quantize)")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for localization (0 = GOMAXPROCS)")

	// Recording and output.
	journalDir := flag.String("journal", "", "record the fused event sequence to a canonical flight journal in this directory")
	fsync := flag.String("fsync", "interval", "journal durability: always, interval, or none")
	alertsPath := flag.String("alerts", "", "write alert records as JSON lines to this file (default stdout)")
	report := flag.Bool("report", false, "print the metrics report to stderr when done")
	metricsJSON := flag.String("metrics-json", "", "write the metrics registry as JSON to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("adaptmerge"))
		return
	}
	if *split > 0 {
		runSplit(srcs, *split, *out, *skews, *splitSeed)
		return
	}
	if *sim > 0 && len(srcs) > 0 {
		log.Fatal("-sim and -src are mutually exclusive")
	}
	if *sim == 0 && len(srcs) == 0 {
		log.Fatal("no input: pass -src (repeatable) or -sim k")
	}
	if *parallelism > 0 {
		adapt.SetDefaultParallelism(*parallelism)
	}

	backend, err := adapt.ParseBackend(*backendName)
	if err != nil {
		log.Fatalf("%v", err)
	}

	var bundle *adapt.Models
	if *modelPath != "" {
		m, err := adapt.LoadModels(*modelPath)
		if err != nil {
			log.Fatalf("load models: %v", err)
		}
		bundle = m
	}
	if _, err := adapt.NewClassifier(backend, bundle); err != nil {
		log.Fatalf("%v", err)
	}

	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rate := *bkgRate
	if rate <= 0 {
		// Same calibration convention as adaptstream, so a merged run and a
		// single-source run of the same exposure share a trigger config.
		rate = float64(len(bg.Simulate(&det, 1.0, xrand.New(*seed).Split(0xCA1))))
		fmt.Fprintf(os.Stderr, "adaptmerge: calibrated background rate %.0f events/s\n", rate)
	}

	reg := obs.NewRegistry()
	cfg := stream.DefaultConfig(rate)
	cfg.Bundle = bundle
	cfg.Backend = backend
	cfg.Seed = *seed
	cfg.Metrics = reg
	cfg.SigmaThreshold = *sigma
	cfg.WindowSec = *window
	cfg.Workers = *parallelism
	cfg.AlertBuffer = 1024

	var journal *flightlog.Journal
	if *journalDir != "" {
		pol, err := syncPolicy(*fsync)
		if err != nil {
			log.Fatal(err)
		}
		journal, err = flightlog.Open(flightlog.Options{Dir: *journalDir, Sync: pol})
		if err != nil {
			log.Fatalf("open journal: %v", err)
		}
		cfg.Journal = journal
	}

	outW := os.Stdout
	if *alertsPath != "" {
		f, err := os.Create(*alertsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		outW = f
	}

	// Assemble the merge sources.
	mcfg := merge.Config{BufferEvents: *buffer, StallTimeout: *stall, Metrics: reg}
	switch {
	case *sim > 0:
		mcfg.Sources = simSources(&det, bg, *sim, *exposure, *burstAt, *fluence, *polar, *azimuth, *seed, *buffer)
	default:
		for i, spec := range srcs {
			var feed merge.Feed
			var err error
			switch spec.kind {
			case "journal":
				feed, err = merge.OpenJournal(spec.path)
			case "evio":
				feed, err = merge.OpenEvio(spec.path)
			}
			if err != nil {
				log.Fatalf("source %d (%s:%s): %v", i, spec.kind, spec.path, err)
			}
			mcfg.Sources = append(mcfg.Sources, merge.Source{
				Name:      fmt.Sprintf("s%d", i),
				OffsetSec: spec.offset,
				Feed:      feed,
			})
		}
	}
	merger, err := merge.New(mcfg)
	if err != nil {
		log.Fatal(err)
	}

	p := stream.New(cfg)
	enc := json.NewEncoder(outW)
	drained := make(chan int)
	go func() {
		n := 0
		for a := range p.Alerts() {
			if err := enc.Encode(a.Record()); err != nil {
				log.Fatal(err)
			}
			n++
		}
		drained <- n
	}()

	mergeErr := merger.Run(func(ev *detector.Event) { p.Ingest(ev) })
	p.Close()
	nAlerts := <-drained

	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Fatalf("close journal: %v", err)
		}
		st := journal.Stats()
		fmt.Fprintf(os.Stderr, "adaptmerge: canonical journal: %d records in %d segment(s), %d bytes\n",
			st.Appended, st.Segments, st.TotalBytes)
	}
	for _, st := range merger.Stats() {
		fmt.Fprintf(os.Stderr,
			"adaptmerge: source %s: %d event(s), %d late-dropped, %d stall(s), %d truncated byte(s), skew est %+.6fs",
			st.Name, st.Events, st.LateDropped, st.Stalls, st.TruncatedBytes, st.SkewEstSec)
		if st.Err != nil {
			fmt.Fprintf(os.Stderr, ", failed: %v", st.Err)
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "adaptmerge: %d event(s) fused (%d late-dropped), %d alert(s) out\n",
		merger.EventsOut(), merger.LateDropped(), nAlerts)

	if *report {
		reg.WriteText(os.Stderr)
	}
	if *metricsJSON != "" {
		blob, err := json.MarshalIndent(reg, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*metricsJSON, append(blob, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if mergeErr != nil {
		log.Fatalf("merge finished with source failures: %v", mergeErr)
	}
}

// runSplit implements -split: slice one journal k ways with injected skew.
func runSplit(srcs srcFlags, k int, out, skews string, seed uint64) {
	if len(srcs) != 1 || srcs[0].kind != "journal" {
		log.Fatal("split mode needs exactly one -src journal:DIR input")
	}
	if out == "" {
		log.Fatal("split mode needs -out DIR")
	}
	var skewsSec []float64
	if skews != "" {
		for _, tok := range strings.Split(skews, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				log.Fatalf("bad -skew entry %q: %v", tok, err)
			}
			skewsSec = append(skewsSec, v)
		}
	}
	dirs := make([]string, k)
	for i := range dirs {
		dirs[i] = filepath.Join(out, fmt.Sprintf("part%d", i))
	}
	st, err := merge.SplitJournal(srcs[0].path, dirs, skewsSec, seed)
	if err != nil {
		log.Fatalf("split: %v", err)
	}
	for i, n := range st.Events {
		skew := 0.0
		if len(skewsSec) > 0 {
			skew = skewsSec[i]
		}
		fmt.Fprintf(os.Stderr, "adaptmerge: %s: %d event(s), skew %+gs\n", dirs[i], n, skew)
	}
	fmt.Fprintf(os.Stderr, "adaptmerge: split %d record(s) into %d journal(s)\n", st.Records, k)
}

// simSources simulates one exposure, deals its events round-robin to k
// live push feeds, and starts one pushing goroutine per segment — k
// detector panels streaming concurrently with arbitrary interleaving. The
// fused output is still deterministic: the watermark orders by event time,
// not arrival.
func simSources(det *detector.Config, bg background.Model, k int, exposure float64, burstAt string, fluence, polar, azimuth float64, seed uint64, buffer int) []merge.Source {
	events := simulate(det, bg, exposure, burstAt, fluence, polar, azimuth, seed)
	parts := make([][]*detector.Event, k)
	for i, ev := range events {
		parts[i%k] = append(parts[i%k], ev)
	}
	sources := make([]merge.Source, k)
	for i := range sources {
		feed := merge.NewPushFeed(buffer)
		sources[i] = merge.Source{Name: fmt.Sprintf("s%d", i), Feed: feed}
		go func(part []*detector.Event, feed *merge.PushFeed, lane int) {
			// A tiny stagger exercises genuinely concurrent arrival without
			// slowing the run measurably.
			for n, ev := range part {
				if n%512 == 0 {
					time.Sleep(time.Duration(lane) * time.Millisecond)
				}
				feed.Ingest(ev)
			}
			feed.CloseInput()
		}(parts[i], feed, i)
	}
	return sources
}

func syncPolicy(name string) (flightlog.SyncPolicy, error) {
	switch name {
	case "always":
		return flightlog.SyncAlways, nil
	case "interval":
		return flightlog.SyncInterval, nil
	case "none":
		return flightlog.SyncNone, nil
	}
	return 0, fmt.Errorf("unknown -fsync policy %q (want always, interval, or none)", name)
}

// simulate builds a live exposure exactly as adaptstream does, so the two
// binaries produce comparable runs for the same flags.
func simulate(det *detector.Config, bg background.Model, exposure float64, burstAt string, fluence, polar, azimuth float64, seed uint64) []*detector.Event {
	rng := xrand.New(seed)
	events := bg.Simulate(det, exposure, rng)
	for _, tok := range strings.Split(burstAt, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		t0, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			log.Fatalf("bad -burst-at entry %q: %v", tok, err)
		}
		b := detector.Burst{Fluence: fluence, PolarDeg: polar, AzimuthDeg: azimuth}
		for _, ev := range detector.SimulateBurst(det, b, rng) {
			ev.ArrivalTime += t0
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	return events
}
