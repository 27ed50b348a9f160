// Package repro's root benchmarks regenerate every table and figure of the
// paper (DESIGN.md §4) under `go test -bench=.`. Each benchmark iteration
// runs the full experiment at the benchmark scale.
//
// Scale: benchmarks honor ADAPT_SCALE (ci | default | full) and fall back
// to "ci" when unset, so a plain `go test -bench=. -benchmem` finishes in
// minutes. Paper-quality curves come from `adaptbench -scale full` (or
// default), which shares the same experiment drivers and model caches.
package repro

import (
	"fmt"
	"io"
	"math"
	"os"
	"testing"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/downlink"
	"repro/internal/evio"
	"repro/internal/expt"
	"repro/internal/flightlog"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// benchScale resolves the benchmark workload size.
func benchScale() expt.Scale {
	if s, ok := expt.ScaleByName(os.Getenv("ADAPT_SCALE")); ok {
		return s
	}
	s, _ := expt.ScaleByName("ci")
	return s
}

// benchScene builds the standard benchmark scene: one 1 MeV/cm² normally
// incident burst plus a 1-second background window, reconstructed into
// Compton rings (the paper's Tables I/II workload).
func benchScene() ([]*detector.Event, []*recon.Ring) {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rng := xrand.New(0xBE7C)
	burst := detector.Burst{Fluence: 1.0, PolarDeg: 0, AzimuthDeg: 45}
	events := detector.SimulateBurst(&det, burst, rng)
	events = append(events, bg.Simulate(&det, 1.0, rng)...)
	rcfg := recon.DefaultConfig()
	var rings []*recon.Ring
	for _, ev := range events {
		if r, ok := recon.Reconstruct(&rcfg, ev); ok {
			rings = append(rings, r)
		}
	}
	return events, rings
}

// BenchmarkLocalizeStage measures the localization hot path (approximation
// grid search + seed refinement) on the standard benchmark scene at several
// worker counts. With ≥4 cores the parallel grid search should beat
// workers=1 by ≥1.5×; results are bitwise-identical at every worker count
// (see localize.TestParallelBitwiseIdentical).
func BenchmarkLocalizeStage(b *testing.B) {
	_, rings := benchScene()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := localize.DefaultConfig()
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				localize.Localize(&cfg, rings, xrand.New(9))
			}
		})
	}
}

// BenchmarkPipelineRunWorkers measures the full no-ML pipeline
// (reconstruction + localization) over the benchmark scene's raw events at
// several worker counts.
func BenchmarkPipelineRunWorkers(b *testing.B) {
	events, _ := benchScene()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := pipeline.DefaultOptions()
			opts.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pipeline.Run(opts, events, xrand.New(9))
			}
		})
	}
}

// BenchmarkJournalAppend measures flight-journal append throughput under
// each durability policy with a representative payload (one evio-encoded
// event, ~80 bytes). SyncAlways pays one fsync per record and is orders of
// magnitude slower — the price of per-record durability.
func BenchmarkJournalAppend(b *testing.B) {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	events := bg.Simulate(&det, 0.01, xrand.New(3))
	if len(events) == 0 {
		b.Fatal("no benchmark events")
	}
	payload, err := evio.Marshal(events[:1])
	if err != nil {
		b.Fatal(err)
	}
	for _, pol := range []flightlog.SyncPolicy{flightlog.SyncNone, flightlog.SyncInterval, flightlog.SyncAlways} {
		b.Run(pol.String(), func(b *testing.B) {
			j, err := flightlog.Open(flightlog.Options{Dir: b.TempDir(), Sync: pol})
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := j.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamTrigger measures the streaming trigger's per-event cost on
// a quiet stream (the steady-state flight workload: rate estimation, ring
// maintenance, and the sliding-window test, with no burst firing).
func BenchmarkStreamTrigger(b *testing.B) {
	cfg := stream.DefaultConfig(1000)
	events := make([]*detector.Event, 10000)
	for i := range events {
		events[i] = &detector.Event{ArrivalTime: float64(i) / 1000}
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	var p *stream.Processor
	for i := 0; i < b.N; i++ {
		if n == 0 {
			p = stream.New(cfg)
		}
		p.Ingest(events[n])
		n++
		if n == len(events) {
			p.Close()
			for range p.Alerts() {
			}
			n = 0
		}
	}
	if n != 0 {
		p.Close()
		for range p.Alerts() {
		}
	}
}

// BenchmarkFig4 regenerates the motivation study: no-ML pipeline accuracy
// with background+dη errors vs the two oracle arms (paper Fig. 4).
func BenchmarkFig4(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		expt.Fig4(io.Discard, sc)
	}
}

// BenchmarkFig7 regenerates the polar-angle-input ablation (paper Fig. 7).
func BenchmarkFig7(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc) // exclude one-time training from the timing
	expt.NoPolarBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig7(io.Discard, sc)
	}
}

// BenchmarkFig8 regenerates accuracy vs polar angle, ML vs no-ML (Fig. 8).
func BenchmarkFig8(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig8(io.Discard, sc)
	}
}

// BenchmarkFig9 regenerates accuracy vs fluence (paper Fig. 9).
func BenchmarkFig9(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig9(io.Discard, sc)
	}
}

// BenchmarkFig10 regenerates the perturbation robustness study (Fig. 10).
func BenchmarkFig10(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig10(io.Discard, sc)
	}
}

// BenchmarkTableI regenerates the single-worker (RPi 3B+ proxy) stage
// timing table (paper Table I).
func BenchmarkTableI(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.TableI(io.Discard, sc)
	}
}

// BenchmarkTableII regenerates the 4-worker (Atom proxy) stage timing table
// (paper Table II).
func BenchmarkTableII(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.TableII(io.Discard, sc)
	}
}

// BenchmarkFig11 regenerates the INT8-vs-FP32 background-model accuracy
// study (paper Fig. 11).
func BenchmarkFig11(b *testing.B) {
	sc := benchScale()
	expt.Int8Background(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.Fig11(io.Discard, sc)
	}
}

// BenchmarkTableIII regenerates the FPGA kernel comparison (paper
// Table III) from the analytic dataflow model.
func BenchmarkTableIII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		expt.Table3(io.Discard)
	}
}

// BenchmarkAblationThresholds compares per-polar-bin vs global
// classification thresholds (design choice, DESIGN.md §4).
func BenchmarkAblationThresholds(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.AblationThresholds(io.Discard, sc)
	}
}

// BenchmarkAblationIterations compares iterative vs single-shot background
// rejection (the Fig. 6 design rationale).
func BenchmarkAblationIterations(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.AblationIterations(io.Discard, sc)
	}
}

// BenchmarkAblationGating compares gated vs ungated refinement.
func BenchmarkAblationGating(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		expt.AblationGating(io.Discard, sc)
	}
}

// BenchmarkAblationWidening compares dEta update policies.
func BenchmarkAblationWidening(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.AblationWidening(io.Discard, sc)
	}
}

// BenchmarkAblationThreeCompton compares the optional three-Compton
// incident-energy estimate against the paper's summed-deposit energies.
func BenchmarkAblationThreeCompton(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		expt.AblationThreeCompton(io.Discard, sc)
	}
}

// BenchmarkAPTStudy regenerates the §VI full-APT dim-burst study.
func BenchmarkAPTStudy(b *testing.B) {
	sc := benchScale()
	expt.APTBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.APTStudy(io.Discard, sc)
	}
}

// BenchmarkPileUpStudy regenerates the §VI simultaneous-events study.
func BenchmarkPileUpStudy(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.PileUpStudy(io.Discard, sc)
	}
}

// BenchmarkQuantStudy regenerates the §VI quantization-strategy study.
func BenchmarkQuantStudy(b *testing.B) {
	sc := benchScale()
	expt.SwappedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.QuantStudy(io.Discard, sc)
	}
}

// BenchmarkCoverageStudy regenerates the credible-region coverage
// calibration study (an addition of this reproduction).
func BenchmarkCoverageStudy(b *testing.B) {
	sc := benchScale()
	expt.Int8Background(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.CoverageStudy(io.Discard, sc)
	}
}

// BenchmarkAblationDEtaLoss compares L2 vs Huber dEta training losses.
func BenchmarkAblationDEtaLoss(b *testing.B) {
	sc := benchScale()
	expt.SharedBundle(sc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		expt.AblationDEtaLoss(io.Discard, sc)
	}
}

// skymapSink keeps the compiler from discarding benchmarked map builds.
var skymapSink *skymap.Map

// BenchmarkSkymapBuild measures downlink-map construction (hierarchical
// evaluation, refinement selection, quantization, embedded contours) from
// the benchmark scene's rings at several worker counts: the background-
// aware mixture map that flies with every alert, weighted by seeded
// classifier-like probabilities (low for burst rings, high for background
// rings), and the no-ML likelihood map. The output is bitwise-identical at
// every worker count (skymap.TestWorkerCountInvariance).
func BenchmarkSkymapBuild(b *testing.B) {
	_, rings := benchScene()
	cfg := localize.DefaultConfig()
	rng := xrand.New(0x5CA7)
	probs := make([]float64, len(rings))
	for i, r := range rings {
		probs[i] = 0.3 * math.Pow(rng.Float64(), 3)
		if r.Background {
			probs[i] = 1 - 0.5*math.Pow(rng.Float64(), 2)
		}
	}
	for _, surface := range []struct {
		name  string
		probs []float64
	}{{"mixture", probs}, {"noml", nil}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", surface.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					skymapSink = skymap.FromRings(&cfg, rings, surface.probs, skymap.Options{Workers: workers})
				}
			})
		}
	}
}

// BenchmarkSkymapEncode measures payload serialization (the downlink hot
// path: one encode per alert, and one per served /v1/skymap response).
func BenchmarkSkymapEncode(b *testing.B) {
	_, rings := benchScene()
	cfg := localize.DefaultConfig()
	m := skymap.FromRings(&cfg, rings, nil, skymap.Options{})
	b.SetBytes(int64(m.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Encode()
	}
}

// BenchmarkSkymapDecode measures payload parsing plus derived-grid
// reconstruction (the ground-segment path, and the fuzzed attack surface).
func BenchmarkSkymapDecode(b *testing.B) {
	_, rings := benchScene()
	cfg := localize.DefaultConfig()
	payloads := []struct {
		name string
		data []byte
	}{
		{"default", skymap.FromRings(&cfg, rings, nil, skymap.Options{}).Encode()},
		{"largest", largestSkymapPayload()},
	}
	for _, p := range payloads {
		b.Run(p.name, func(b *testing.B) {
			b.SetBytes(int64(len(p.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := skymap.Decode(p.data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// largestSkymapPayload builds the largest payload Decode accepts: the
// finest geometry (MaxCoarseBands × MaxRefineFactor) with every coarse
// pixel refined, over a broad smooth surface (a 60° Gaussian around the
// zenith) so every pixel carries mass and the values vary.
func largestSkymapPayload() []byte {
	surface := func(dirs []geom.Vec, out []float64) {
		for i, d := range dirs {
			th := geom.Polar(d) / (math.Pi / 3)
			out[i] = -th * th / 2
		}
	}
	return skymap.Build(surface, skymap.Options{
		CoarseBands: skymap.MaxCoarseBands, RefineFactor: skymap.MaxRefineFactor,
		MaxTiles: 1 << 20, RefineFraction: 1, Temperature: 1, DynamicRange: 40,
	}).Encode()
}

// benchJournalRecords builds a quiet-sky journal workload: one canonical
// evio record per detected background event, the exact byte streams the
// flight journal holds and the downlink codec preconditions.
func benchJournalRecords(b *testing.B) ([][]byte, int64) {
	b.Helper()
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	events := bg.Simulate(&det, 0.25, xrand.New(0xD1))
	if len(events) == 0 {
		b.Fatal("no benchmark events")
	}
	records := make([][]byte, len(events))
	var raw int64
	for i, ev := range events {
		rec, err := evio.Marshal([]*detector.Event{ev})
		if err != nil {
			b.Fatal(err)
		}
		records[i] = rec
		raw += int64(len(rec))
	}
	return records, raw
}

// BenchmarkDownlinkCodecEncode measures the delta-evio batch encoder on a
// quiet-sky journal segment, with and without the deflate entropy stage,
// reporting the achieved compression ratio (EXPERIMENTS.md records it; the
// codec test enforces the 2x floor).
func BenchmarkDownlinkCodecEncode(b *testing.B) {
	records, raw := benchJournalRecords(b)
	for _, opts := range []struct {
		name string
		o    downlink.CodecOptions
	}{{"flate", downlink.CodecOptions{}}, {"noflate", downlink.CodecOptions{NoFlate: true}}} {
		b.Run(opts.name, func(b *testing.B) {
			enc, err := downlink.EncodeRecords(records, opts.o)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(raw)/float64(len(enc)), "x-compression")
			b.SetBytes(raw)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := downlink.EncodeRecords(records, opts.o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDownlinkCodecDecode measures the ground-side batch decoder (the
// fuzzed attack surface) reproducing the journal records bitwise.
func BenchmarkDownlinkCodecDecode(b *testing.B) {
	records, raw := benchJournalRecords(b)
	payload, err := downlink.EncodeRecords(records, downlink.CodecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(raw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := downlink.DecodeRecords(payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDownlinkScheduler measures the priority scheduler's chunking
// throughput: enqueue mixed-class messages, drain every chunk.
func BenchmarkDownlinkScheduler(b *testing.B) {
	payload := make([]byte, 16<<10)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	b.SetBytes(4 * int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := downlink.NewScheduler(1024, nil)
		for c := downlink.Class(0); c < downlink.NumClasses; c++ {
			if _, err := s.Enqueue(0, c, payload); err != nil {
				b.Fatal(err)
			}
		}
		for {
			if _, _, ok := s.NextChunk(); !ok {
				break
			}
		}
	}
}

// BenchmarkDownlinkSession measures the full closed-loop ARQ session — the
// event-time link simulation with 10% drop and reordering — delivering one
// compressed journal batch.
func BenchmarkDownlinkSession(b *testing.B) {
	records, _ := benchJournalRecords(b)
	payload, err := downlink.EncodeRecords(records, downlink.CodecOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess, err := downlink.NewSession(downlink.Config{
			BudgetBytesPerSec: 1 << 20,
			Seed:              uint64(i),
			Loss:              downlink.LossProfile{DropProb: 0.10, ReorderProb: 0.25},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.Enqueue(downlink.ClassJournal, payload); err != nil {
			b.Fatal(err)
		}
		if !sess.Flush(1e6) {
			b.Fatal("session did not drain")
		}
	}
}
