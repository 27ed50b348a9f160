// Command perfbench is the repository benchmark for the onboard loop. It
// drives the program only through its public package functions, on one of
// three workloads:
//
//   - burst:  pre-simulated 1 MeV/cm² scenes through pipeline.Run (the
//     paper's Tables I/II job);
//   - flight: a multi-burst exposure split over two lanes → merge →
//     stream (journal + sky maps) → downlink session → ground reassembly;
//   - serve:  in-process adaptserve over loopback, int8 backend, an open
//     loop at a fixed rate followed by a closed-loop capacity phase.
//
// Every workload reports the same five end-to-end metrics:
//
//	setup_s           median of three complete set-ups: model training and inputs
//	peak_heap_mb      peak HeapInuse during the measured phase
//	latency_p50_ms    burst: one pipeline.Run; flight: window-closing Ingest to
//	                  alert received; serve: request due time to last byte
//	latency_tail_ms   the highest percentile with ten samples beyond it: p95
//	                  (burst), p50 (flight, 20 alerts), p90 (serve)
//	throughput_per_s  burst: runs per busy second; flight: exposure events per
//	                  second, first merge emit to ground journal closed; serve:
//	                  closed-loop 2xx responses per second
//
// With -trace 0 it prints the end-to-end metrics of the named workload;
// with -trace 1 it prints the per-layer metrics of all three workloads,
// timed from this package around calls into each module. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload burst --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its whole set-up; setup_s is
// the median, so one slow repetition does not move it.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's final output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's inputs and accumulates its outcome.
type bench struct {
	seed    uint64
	seconds time.Duration
	workers int    // nproc: pipeline workers and load-generator concurrency
	tmp     string // scratch directory inside the checkout

	metrics   map[string]metric
	info      map[string]any // sample counts and context, printed before the result
	attempted int64
	failed    int64
	problems  []string
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and whether it failed.
func (b *bench) op(failed bool) {
	b.attempted++
	if failed {
		b.failed++
	}
}

// check records a correctness violation when ok is false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// sub derives an independent input seed for one purpose from the run seed.
func (b *bench) sub(purpose uint64) uint64 { return b.seed*1_000_003 + purpose }

func main() {
	workload := flag.String("workload", "", "burst | flight | serve")
	seed := flag.Uint64("seed", 1, "input seed: scenes, exposures and request bodies derive from it")
	seconds := flag.Int("seconds", 10, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics of every workload")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload burst|flight|serve -seed N -seconds S -trace 0|1\n")
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp(filepath.Join(".bench_build", "tmp"), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(tmp)

	b := &bench{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(),
		tmp:     tmp,
		metrics: map[string]metric{},
		info:    map[string]any{},
	}
	if *trace == 1 {
		for _, trace := range tracers {
			trace(b)
		}
	} else {
		run(b)
	}

	hdr := map[string]any{
		"workload": *workload, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "cpu": cpuModel(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
		"info": b.info, "problems": b.problems,
	}
	line, _ := json.Marshal(hdr)
	fmt.Println(string(line))
	for _, p := range b.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	out, err := json.Marshal(report{
		Correct: len(b.problems) == 0 && b.attempted > 0, Attempted: max(b.attempted, 1),
		Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil { // a NaN or Inf metric is a benchmark bug
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.RemoveAll(tmp)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if len(b.problems) > 0 {
		os.RemoveAll(tmp)
		os.Exit(1)
	}
}

var (
	workloads = map[string]func(*bench){"burst": runBurst, "flight": runFlight, "serve": runServe}
	// tracers all run in every traced run, whatever the workload, so one
	// traced run reports every per-layer metric.
	tracers = []func(*bench){traceBurst, traceFlight, traceServe}
)

// timedSetup runs setup setupReps times and returns the last result with
// the median wall time in seconds. Earlier results are dropped and
// collected between repetitions, so every repetition starts from the same
// heap.
func timedSetup[T any](setup func() T) (T, float64) {
	var out T
	var secs []float64
	for i := 0; i < setupReps; i++ {
		var zero T
		out = zero
		runtime.GC()
		t0 := time.Now()
		out = setup()
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC()
	return out, quantile(secs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics, computed from the raw samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// heapSampler tracks peak HeapInuse (heap objects plus unused bytes of
// in-use spans) by polling runtime/metrics, which does not stop the world.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	read := func() {
		metrics.Read(samples)
		if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.peak {
			h.peak = v
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// mallocs returns the cumulative heap allocation count. It stops the
// world, so traced runs call it only outside timed intervals.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// span accumulates one layer's busy time and allocations in a traced run.
type span struct {
	d      time.Duration
	allocs uint64
}

// timeSpan runs fn, adding its wall time and allocation count to s.
func (s *span) timeSpan(fn func()) {
	a := mallocs()
	t0 := time.Now()
	fn()
	s.d += time.Since(t0)
	s.allocs += mallocs() - a
}

// cpuModel reads the processor model name for the result header.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
