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
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/detector"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/stream"
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
	var srcs srcFlags
	flag.Var(&srcs, "src", "event source, journal:DIR or evio:FILE with optional @clock-offset-seconds (repeatable)")

	// Split mode.
	split := flag.Int("split", 0, "split mode: slice the single -src journal into this many journals under -out")
	out := flag.String("out", "", "split mode: output directory (slices land in part0..partN-1)")
	skews := flag.String("skew", "", "split mode: comma-separated per-slice clock skews in seconds (empty = none)")
	splitSeed := flag.Uint64("split-seed", 1, "split mode: seed for the random record-to-slice assignment")

	// Live-sim mode.
	sim := flag.Int("sim", 0, "live mode: simulate this many detector segments pushing one exposure concurrently")
	exposure := cli.ExposureFlags()

	// Merge tuning.
	buffer := flag.Int("buffer", 1024, "per-source prefetch buffer in events")
	stall := flag.Duration("stall-timeout", 0, "age a silent source out of the watermark after this long (0 = wait forever)")

	// Trigger configuration and outputs (shared with adaptstream).
	seed := flag.Uint64("seed", 1, "simulation and localization seed")
	trigger := cli.TriggerFlags()
	modelFlags := cli.ModelFlags()
	workers := cli.Parallelism()
	metrics := cli.MetricsFlags(true)
	cli.Parse("adaptmerge")

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

	// Assemble the merge sources.
	mcfg := merge.Config{BufferEvents: *buffer, StallTimeout: *stall, Metrics: reg}
	switch {
	case *sim > 0:
		events, err := exposure.Simulate(*seed)
		if err != nil {
			log.Fatal(err)
		}
		mcfg.Sources = simSources(events, *sim, *buffer)
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
	wait, err := trigger.WriteAlerts(p.Alerts())
	if err != nil {
		log.Fatal(err)
	}
	mergeErr := merger.Run(func(ev *detector.Event) { p.Ingest(ev) })
	p.Close()
	recs, err := wait()
	if err != nil {
		log.Fatal(err)
	}
	if err := cli.CloseJournal(cfg.Journal, "canonical journal"); err != nil {
		log.Fatal(err)
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
	log.Printf("%d event(s) fused (%d late-dropped), %d alert(s) out",
		merger.EventsOut(), merger.LateDropped(), len(recs))

	if err := metrics.Write(reg); err != nil {
		log.Fatal(err)
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

// simSources deals one simulated exposure's events round-robin to k
// live push feeds, and starts one pushing goroutine per segment — k
// detector panels streaming concurrently with arbitrary interleaving. The
// fused output is still deterministic: the watermark orders by event time,
// not arrival.
func simSources(events []*detector.Event, k, buffer int) []merge.Source {
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
