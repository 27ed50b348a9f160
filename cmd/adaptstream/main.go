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

	"repro/internal/cli"
	"repro/internal/detector"
	"repro/internal/downlink"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/obs"
	"repro/internal/stream"
)

func main() {
	// Input selection (exactly one source).
	replayDir := flag.String("replay", "", "replay a flight journal from this directory instead of live input")
	input := flag.String("input", "", "read events from this evio file instead of simulating")

	// Live-simulation parameters.
	exposure := cli.ExposureFlags()
	seed := flag.Uint64("seed", 1, "simulation and localization seed")

	// Trigger configuration and outputs.
	trigger := cli.TriggerFlags()
	modelFlags := cli.ModelFlags()
	lossy := flag.Bool("lossy", false, "use the non-blocking detector-feed path (drops events under overload) instead of lossless ingestion")
	workers := cli.Parallelism()
	skymap := flag.Bool("skymap", false, "attach a quantized downlink sky-map payload (skymap_b64) plus calibrated credible areas to every alert record")
	skymapTemp := flag.Float64("skymap-temp", 0, "sky-map tempering temperature (0 = the calibrated default, 1 = statistical-only)")
	metrics := cli.MetricsFlags(true)

	// Emulated downlink egress.
	downlinkDir := flag.String("downlink", "", "push alerts and the recorded journal through an emulated lossy downlink, reassembling into this ground directory")
	downlinkBudget := flag.Float64("downlink-budget", 4096, "downlink bandwidth budget in bytes/s")
	downlinkLoss := flag.Float64("downlink-loss", 0, "per-frame drop probability on the emulated downlink")
	downlinkSeed := flag.Uint64("downlink-seed", 1, "downlink fault seed")
	cli.Parse("adaptstream")

	if *replayDir != "" && *input != "" {
		log.Fatal("-replay and -input are mutually exclusive")
	}
	if *replayDir != "" && trigger.Journal != "" {
		log.Fatal("-journal cannot be combined with -replay (the journal is the input)")
	}
	if *skymapTemp < 0 {
		log.Fatal("-skymap-temp must be >= 0 (0 = calibrated default)")
	}
	bundle, backend, err := modelFlags.Load()
	if err != nil {
		log.Fatal(err)
	}
	cfg, err := trigger.Config(*seed)
	if err != nil {
		log.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Bundle = bundle
	cfg.Backend = backend
	cfg.Metrics = reg
	cfg.Workers = *workers
	cfg.SkyMap = *skymap
	cfg.SkyMapOpts.Temperature = *skymapTemp

	p := stream.New(cfg)
	wait, err := trigger.WriteAlerts(p.Alerts())
	if err != nil {
		log.Fatal(err)
	}
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
		events, err := exposure.Simulate(*seed)
		if err != nil {
			log.Fatal(err)
		}
		fed = feed(p, events, *lossy)
	}
	recs, err := wait()
	if err != nil {
		log.Fatal(err)
	}
	if err := cli.CloseJournal(cfg.Journal, "journal"); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d events in, %d alert(s) out", fed, len(recs))

	if *downlinkDir != "" {
		journalSource := trigger.Journal
		if *replayDir != "" {
			journalSource = *replayDir
		}
		runDownlink(*downlinkDir, *downlinkBudget, *downlinkLoss, *downlinkSeed,
			cfg.BurstWindowSec, recs, journalSource)
	}
	if err := metrics.Write(reg); err != nil {
		log.Fatal(err)
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
	log.Printf("downlink: %d alert(s), %d journal record(s)%s, %d chunks, %d retransmits, drained in %.1f s event time",
		len(alerts), nRecords, ratio, st.ChunksSent, st.Retransmits, st.ElapsedSec)
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
