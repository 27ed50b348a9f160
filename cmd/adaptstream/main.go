// Command adaptstream runs the real-time streaming trigger pipeline
// (internal/stream) over a live simulated exposure, a recorded evio event
// file, or a durable flight journal, and emits one JSON alert record per
// detected burst.
//
// Three modes, by input source:
//
//	adaptstream -exposure 3 -burst-at 1.2 -fluence 2 -journal ./fl   # live sim, recorded
//	adaptstream -input events.evio -alerts alerts.jsonl              # recorded evio file
//	adaptstream -replay ./fl -alerts replayed.jsonl                  # journal replay
//
// Replaying a journal reproduces the recording session's alert sequence
// bitwise: all trigger state advances on event time, never wall clock.
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

	"repro/adapt"
	"repro/internal/background"
	"repro/internal/buildinfo"
	"repro/internal/detector"
	"repro/internal/downlink"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adaptstream: ")

	// Input selection (exactly one source).
	replayDir := flag.String("replay", "", "replay a flight journal from this directory instead of live input")
	input := flag.String("input", "", "read events from this evio file instead of simulating")

	// Live-simulation parameters.
	exposure := flag.Float64("exposure", 3.0, "simulated exposure length in seconds")
	burstAt := flag.String("burst-at", "1.2", "comma-separated burst start times in seconds (empty = background only)")
	fluence := flag.Float64("fluence", 2.0, "fluence of each injected burst in MeV/cm²")
	polar := flag.Float64("polar", 20, "burst polar angle in degrees")
	azimuth := flag.Float64("azimuth", 130, "burst azimuth in degrees")
	seed := flag.Uint64("seed", 1, "simulation and localization seed")

	// Trigger configuration.
	bkgRate := flag.Float64("bkg-rate", 0, "calibrated background rate in events/s (0 = calibrate from a seeded 1 s background simulation)")
	sigma := flag.Float64("sigma", 8, "trigger significance threshold in Poisson sigma")
	window := flag.Float64("window", 0.1, "trigger sliding-window width in seconds")
	modelPath := flag.String("model", "", "model bundle for the ML pipeline (empty = analytic pipeline)")
	backendName := flag.String("backend", "float32", "inference backend: float32 or int8 (int8 needs a bundle from adapttrain -quantize)")
	lossy := flag.Bool("lossy", false, "use the non-blocking detector-feed path (drops events under overload) instead of lossless ingestion")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for localization (0 = GOMAXPROCS)")
	skymap := flag.Bool("skymap", false, "attach a quantized downlink sky-map payload (skymap_b64) plus calibrated credible areas to every alert record")
	skymapTemp := flag.Float64("skymap-temp", 0, "sky-map tempering temperature (0 = the calibrated default, 1 = statistical-only)")

	// Emulated downlink egress.
	downlinkDir := flag.String("downlink", "", "push alerts and the recorded journal through an emulated lossy downlink, reassembling into this ground directory")
	downlinkBudget := flag.Float64("downlink-budget", 4096, "downlink bandwidth budget in bytes/s")
	downlinkLoss := flag.Float64("downlink-loss", 0, "per-frame drop probability on the emulated downlink")
	downlinkSeed := flag.Uint64("downlink-seed", 1, "downlink fault seed")

	// Recording and output.
	journalDir := flag.String("journal", "", "record admitted events to a flight journal in this directory")
	fsync := flag.String("fsync", "interval", "journal durability: always, interval, or none")
	alertsPath := flag.String("alerts", "", "write alert records as JSON lines to this file (default stdout)")
	report := flag.Bool("report", false, "print the metrics report to stderr when done")
	metricsJSON := flag.String("metrics-json", "", "write the metrics registry as JSON to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("adaptstream"))
		return
	}
	if *replayDir != "" && *input != "" {
		log.Fatal("-replay and -input are mutually exclusive")
	}
	if *replayDir != "" && *journalDir != "" {
		log.Fatal("-journal cannot be combined with -replay (the journal is the input)")
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
		// Same calibration convention as the campaign runner: count one
		// seeded second of quiet sky.
		rate = float64(len(bg.Simulate(&det, 1.0, xrand.New(*seed).Split(0xCA1))))
		fmt.Fprintf(os.Stderr, "adaptstream: calibrated background rate %.0f events/s\n", rate)
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
	if *skymapTemp < 0 {
		log.Fatal("-skymap-temp must be >= 0 (0 = calibrated default)")
	}
	cfg.SkyMap = *skymap
	cfg.SkyMapOpts.Temperature = *skymapTemp

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

	out := os.Stdout
	if *alertsPath != "" {
		f, err := os.Create(*alertsPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		out = f
	}

	p := stream.New(cfg)
	enc := json.NewEncoder(out)
	var downRecs []stream.Record
	drained := make(chan int)
	go func() {
		n := 0
		for a := range p.Alerts() {
			rec := a.Record()
			if err := enc.Encode(rec); err != nil {
				log.Fatal(err)
			}
			if *downlinkDir != "" {
				downRecs = append(downRecs, rec)
			}
			n++
		}
		drained <- n
	}()

	var fed int
	switch {
	case *replayDir != "":
		n, err := stream.ReplayJournal(*replayDir, p) // closes p
		if err != nil {
			log.Fatalf("replay: %v", err)
		}
		fed = n
	case *input != "":
		events, err := readEvio(*input)
		if err != nil {
			log.Fatal(err)
		}
		fed = feed(p, events, *lossy)
	default:
		events := simulate(&det, bg, *exposure, *burstAt, *fluence, *polar, *azimuth, *seed)
		fed = feed(p, events, *lossy)
	}
	nAlerts := <-drained

	if journal != nil {
		if err := journal.Close(); err != nil {
			log.Fatalf("close journal: %v", err)
		}
		st := journal.Stats()
		fmt.Fprintf(os.Stderr, "adaptstream: journal: %d records in %d segment(s), %d bytes\n",
			st.Appended, st.Segments, st.TotalBytes)
	}
	fmt.Fprintf(os.Stderr, "adaptstream: %d events in, %d alert(s) out\n", fed, nAlerts)

	if *downlinkDir != "" {
		journalSource := *journalDir
		if *replayDir != "" {
			journalSource = *replayDir
		}
		runDownlink(*downlinkDir, *downlinkBudget, *downlinkLoss, *downlinkSeed,
			cfg.BurstWindowSec, downRecs, journalSource)
	}

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
}

// runDownlink replays the session's products — every alert record, plus
// the recorded journal as delta-compressed backfill — through the emulated
// lossy downlink and reassembles them into groundDir. The reassembled
// journal is byte-identical to the onboard one (the ARQ layer recovers
// every loss), and the session stats land in downlink_stats.json.
func runDownlink(groundDir string, budget, loss float64, seed uint64, burstWindowSec float64, alerts []stream.Record, journalSource string) {
	sink, err := downlink.NewDirSink(groundDir, 0)
	if err != nil {
		log.Fatalf("downlink ground: %v", err)
	}
	sess, err := downlink.NewSession(downlink.Config{
		BudgetBytesPerSec: budget,
		Seed:              seed,
		Loss:              downlink.LossProfile{DropProb: loss},
		OnMessage:         sink.OnMessage,
	})
	if err != nil {
		log.Fatalf("downlink: %v", err)
	}

	// Alerts go up as they become available: when the localization window
	// closes. The clamp keeps enqueue times monotone for back-to-back
	// triggers.
	lastT := 0.0
	for _, rec := range alerts {
		t := rec.TriggerS + burstWindowSec
		if t < lastT {
			t = lastT
		}
		blob, err := json.Marshal(rec)
		if err != nil {
			log.Fatalf("downlink alert: %v", err)
		}
		if err := sess.EnqueueAt(t, downlink.ClassAlert, blob); err != nil {
			log.Fatalf("downlink alert: %v", err)
		}
		lastT = t
	}

	var rawBytes, codecBytes int64
	nRecords := 0
	if journalSource != "" {
		var records [][]byte
		if err := flightlog.Replay(journalSource, func(p []byte) error {
			records = append(records, append([]byte(nil), p...))
			rawBytes += int64(len(p))
			return nil
		}); err != nil {
			log.Fatalf("downlink journal replay: %v", err)
		}
		nRecords = len(records)
		// 4096-record batches amortize the per-batch deflate reset
		// (2.12x quiet-sky ratio vs 1.98x at 512; see EXPERIMENTS.md).
		const batch = 4096
		for lo := 0; lo < len(records); lo += batch {
			hi := min(lo+batch, len(records))
			enc, err := downlink.EncodeRecords(records[lo:hi], downlink.CodecOptions{})
			if err != nil {
				log.Fatalf("downlink encode: %v", err)
			}
			codecBytes += int64(len(enc))
			if err := sess.EnqueueAt(lastT, downlink.ClassJournal, enc); err != nil {
				log.Fatalf("downlink journal: %v", err)
			}
		}
	}

	drained := sess.Flush(lastT + 86400)
	if err := sink.Close(); err != nil {
		log.Fatalf("downlink ground: %v", err)
	}
	if !drained {
		log.Fatal("downlink did not drain")
	}
	if sink.JournalRecords != nRecords {
		log.Fatalf("downlink ground has %d journal records, onboard %d", sink.JournalRecords, nRecords)
	}

	st := sess.Stats()
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(groundDir, "downlink_stats.json"), append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	ratio := ""
	if codecBytes > 0 {
		ratio = fmt.Sprintf(", %.2fx codec", float64(rawBytes)/float64(codecBytes))
	}
	fmt.Fprintf(os.Stderr, "adaptstream: downlink: %d alert(s), %d journal record(s)%s, %d chunks, %d retransmits, drained in %.1f s event time\n",
		len(alerts), nRecords, ratio, st.ChunksSent, st.Retransmits, st.ElapsedSec)
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

// feed pushes events into the processor in arrival order and closes it.
// The lossy path mirrors a saturating detector feed: events that find the
// ingest queue full are shed and counted, never queued unboundedly.
func feed(p *stream.Processor, events []*detector.Event, lossy bool) int {
	n := 0
	for _, ev := range events {
		if lossy {
			if p.Offer(ev) {
				n++
			}
		} else {
			p.Ingest(ev)
			n++
		}
	}
	p.Close()
	return n
}

func readEvio(path string) ([]*detector.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	events, err := evio.NewReader(f).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	return events, nil
}

// simulate builds a live exposure: background over the full span with one
// simulated burst injected at each requested start time.
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
