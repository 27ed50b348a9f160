// Command adaptserve runs the localization service: an HTTP server that
// multiplexes concurrent localization/classification requests through the
// parallel pipeline with micro-batched NN inference, bounded admission
// (429 backpressure), hot-reloadable models, and Prometheus metrics.
//
// Usage:
//
//	adaptserve -addr :8080 -models models.gob
//	curl -X POST --data-binary @events.evio \
//	     -H 'Content-Type: application/x-adapt-evio' \
//	     http://localhost:8080/v1/localize
//	curl http://localhost:8080/metrics
//
// SIGTERM/SIGINT drains gracefully: readiness flips to 503, in-flight
// requests finish (bounded by -drain-timeout), then the process exits 0.
//
// The built-in load generator replays a simulated burst at a target rate
// and reports latency percentiles from the same obs histograms:
//
//	adaptserve -loadgen -qps 50 -duration 10s            # self-contained
//	adaptserve -loadgen -target http://host:8080 -qps 50 # against a server
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/adapt"
	"repro/internal/cli"
	"repro/internal/evio"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	modelFlags := cli.ModelFlags()
	workers := cli.Parallelism()
	concurrency := flag.Int("concurrency", 0, "max simultaneously computing requests (0 = parallelism default)")
	queue := flag.Int("queue", 0, "max requests waiting beyond -concurrency before 429 (0 = 4x concurrency)")
	batchRows := flag.Int("batch-rows", 0, "NN micro-batch size trigger in feature rows (0 = default)")
	batchWindow := flag.Duration("batch-window", 0, "NN micro-batch deadline trigger (0 = default 2ms)")
	deadline := flag.Duration("deadline", 0, "default per-request deadline when ?deadline_ms absent (0 = 30s)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "max time to drain in-flight requests on SIGTERM")

	loadgen := flag.Bool("loadgen", false, "run the load generator instead of (or against) a server")
	target := flag.String("target", "", "loadgen: base URL of a running adaptserve (empty = start one in-process)")
	targets := flag.String("targets", "", "loadgen: comma-separated base URLs for open-loop multi-target mode (fleet-wide rate and percentiles; overrides -target)")
	sweep := flag.String("sweep", "", "loadgen: comma-separated QPS steps for a saturation sweep (e.g. 25,50,100,200); empty = single run at -qps")
	qps := flag.Float64("qps", 20, "loadgen: target request rate")
	duration := flag.Duration("duration", 5*time.Second, "loadgen: run length")
	lgConcurrency := flag.Int("loadgen-concurrency", 8, "loadgen: request workers")
	fluence := flag.Float64("fluence", 1.0, "loadgen: simulated burst fluence in MeV/cm²")
	polar := flag.Float64("polar", 30, "loadgen: simulated burst polar angle in degrees")
	seed := flag.Uint64("seed", 1, "loadgen: simulation seed")
	cli.Parse("adaptserve")

	bundle, backend, err := modelFlags.Load()
	if err != nil {
		log.Fatal(err)
	}
	if bundle != nil {
		log.Printf("loaded models from %s (backend %s)", modelFlags.Path, backend)
	}
	inst := adapt.DefaultInstrument()
	inst.Workers = *workers
	inst.Backend = backend
	cfg := serve.Config{
		Instrument:      &inst,
		ModelPath:       modelFlags.Path,
		Bundle:          bundle,
		Backend:         backend,
		MaxConcurrent:   *concurrency,
		QueueDepth:      *queue,
		BatchRows:       *batchRows,
		BatchWindow:     *batchWindow,
		DefaultDeadline: *deadline,
	}

	if *loadgen {
		runLoadgen(cfg, &inst, *target, *targets, *sweep, *qps, *duration, *lgConcurrency, *fluence, *polar, *seed)
		return
	}

	// Catch the signals before announcing the address, so a SIGTERM sent
	// once "listening on" is logged always drains.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	srv := serve.New(cfg)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("listening on %s", l.Addr())
	if err := cli.Serve(ctx, srv, l, *drainTimeout); err != nil {
		log.Fatal(err)
	}
}

// runLoadgen replays one simulated burst at the target(s) — an in-process
// server when no target is given — and prints the latency report. With
// -targets the run is open-loop multi-target: one fleet-wide offered rate
// round-robined across replicas. With -sweep it repeats the run at each
// QPS step and prints the saturation table.
func runLoadgen(cfg serve.Config, inst *adapt.Instrument, target, targets, sweep string, qps float64, duration time.Duration, workers int, fluence, polar float64, seed uint64) {
	obsv := inst.Observe(adapt.Burst{Fluence: fluence, PolarDeg: polar, AzimuthDeg: 30}, seed)
	var body bytes.Buffer
	if err := evio.WriteAll(&body, obsv.Events); err != nil {
		log.Fatalf("encode events: %v", err)
	}
	log.Printf("payload: %d events, %d bytes (fluence %.2f, polar %.0f°, seed %d)",
		len(obsv.Events), body.Len(), fluence, polar, seed)

	var urls []string
	for _, t := range strings.Split(targets, ",") {
		if t = strings.TrimSpace(t); t != "" {
			urls = append(urls, strings.TrimRight(t, "/")+"/v1/localize")
		}
	}

	var srv *serve.Server
	if len(urls) == 0 && target == "" {
		srv = serve.New(cfg)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen: %v", err)
		}
		go srv.Serve(l)
		target = "http://" + l.Addr().String()
		log.Printf("started in-process server at %s", target)
	}

	lcfg := serve.LoadConfig{
		Body:        body.Bytes(),
		QPS:         qps,
		Duration:    duration,
		Concurrency: workers,
	}
	if len(urls) > 0 {
		lcfg.Targets = urls
	} else {
		lcfg.TargetURL = target + "/v1/localize"
	}

	var steps []float64
	for _, s := range strings.Split(sweep, ",") {
		if s = strings.TrimSpace(s); s != "" {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || f <= 0 {
				log.Fatalf("bad -sweep step %q", s)
			}
			steps = append(steps, f)
		}
	}

	var err error
	if len(steps) > 0 {
		var reps []*serve.LoadReport
		reps, err = serve.RunSaturation(context.Background(), lcfg, steps)
		serve.WriteSaturationText(os.Stdout, reps)
	} else {
		var rep *serve.LoadReport
		rep, err = serve.RunLoad(context.Background(), lcfg)
		if rep != nil {
			rep.WriteText(os.Stdout)
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		srv.Shutdown(ctx)
		cancel()
	}
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if srv != nil {
		fmt.Println("server-side stage report:")
		srv.Metrics().WriteText(os.Stdout)
	}
}
