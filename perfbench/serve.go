package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/adapt"
	"repro/internal/evio"
	"repro/internal/features"
	"repro/internal/geom"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/recon"
	"repro/internal/serve"
)

const (
	serveBodies = 16
	// serveRate is the open loop's fixed offered load, about a quarter of
	// what a 2-core host serves in the closed loop: low enough that a
	// slower moment on a shared host does not tip the queue into a
	// different regime, high enough that requests still overlap.
	serveRate = 8.0
	// serveMinSamples keeps ten samples beyond the p90.
	serveMinSamples = 100
	serveTailPct    = 90
	// serveClosedRequests is the closed-loop phase's length: two whole
	// cycles of the request mix.
	serveClosedRequests = 2 * 4 * serveBodies
	// serveMaxC68Deg fails the run if served localizations collapse.
	serveMaxC68Deg = 30
)

type serveInput struct {
	bundle *models.Bundle
	bodies [][]byte
	truth  []geom.Vec
}

func setupServe(b *bench) serveInput {
	in := serveInput{bundle: int8Bundle(modelSeed)}
	in.bodies, in.truth = makeBodies(b.sub(8), serveBodies, b.workers)
	return in
}

// server is an in-process adaptserve on a loopback port.
type server struct {
	srv    *serve.Server
	url    string
	served chan error
	client *http.Client
}

func startServer(bundle *models.Bundle, reg *obs.Registry, conns int) (*server, error) {
	srv := serve.New(serve.Config{Bundle: bundle, Backend: adapt.BackendInt8, Metrics: reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- srv.Serve(ln) }()
	s.client = &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
		},
	}
	return s, nil
}

// stop drains the server and waits for its accept loop to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil {
		err = serr
	}
	return err
}

// requestPath is the endpoint of request k in any phase: a 3:1
// localize:skymap mix in which, over every 64 requests, each of the 16
// bodies (k mod 16) goes three times to /v1/localize and once to
// /v1/skymap.
func requestPath(k int) string {
	if (k+k/serveBodies)%4 == 3 {
		return "/v1/skymap"
	}
	return "/v1/localize"
}

// outcome is one request's result.
type outcome struct {
	k       int           // request number: picks the body and endpoint
	latency time.Duration // open loop: from the due time to the last byte
	status  int
	body    []byte
	err     error
}

func (s *server) send(path string, body []byte) outcome {
	resp, err := s.client.Post(s.url+path+"?canonical=1&seed=7", serve.ContentTypeEvio, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return outcome{status: resp.StatusCode, body: data, err: err}
}

// serveRun holds one run's request outcomes against canonical references.
type serveRun struct {
	refs map[[2]int][]byte // (body, endpoint) → canonical response
	open []outcome
	lag  []time.Duration
	// closed-loop phase
	closedOK  int64
	closedAll []outcome
	closedFor time.Duration
}

// reference sends every (body, endpoint) pair once and keeps the canonical
// responses later repeats must match byte for byte.
func reference(b *bench, s *server, in serveInput) (map[[2]int][]byte, []float64) {
	refs := map[[2]int][]byte{}
	var errs []float64
	for i, body := range in.bodies {
		for e, path := range []string{"/v1/localize", "/v1/skymap"} {
			o := s.send(path, body)
			b.check(o.err == nil && o.status == http.StatusOK, "serve: reference %s body %d: status %d %v", path, i, o.status, o.err)
			refs[[2]int{i, e}] = o.body
			if e == 0 {
				var r serve.LocalizeResponse
				if json.Unmarshal(o.body, &r) == nil && r.OK && r.Dir != nil {
					errs = append(errs, geom.Deg(geom.AngleBetween(geom.Vec{X: r.Dir.X, Y: r.Dir.Y, Z: r.Dir.Z}, in.truth[i])))
				} else {
					errs = append(errs, 180)
				}
			}
		}
	}
	return refs, errs
}

func endpointIndex(k int) int {
	if requestPath(k) == "/v1/skymap" {
		return 1
	}
	return 0
}

// openLoop sends requests on a fixed schedule at rate per second for dur,
// regardless of how fast responses come back. Each request is timed from
// its due time, so a stall delays the clock of every request queued
// behind it; at most conns requests are in flight, and a due request
// waits for a free connection rather than being skipped.
func openLoop(s *server, in serveInput, rate float64, dur time.Duration, conns int) ([]outcome, []time.Duration) {
	n := int(rate * dur.Seconds())
	out := make([]outcome, n)
	lag := make([]time.Duration, n)
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		lag[k] = time.Since(due)
		sem <- struct{}{}
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			o := s.send(requestPath(k), in.bodies[k%len(in.bodies)])
			o.k, o.latency = k, time.Since(due)
			out[k] = o
		}(k, due)
	}
	wg.Wait()
	return out, lag
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one completes, until total requests were sent.
func closedLoop(s *server, in serveInput, total, conns int) ([]outcome, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var all []outcome
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				o := s.send(requestPath(k), in.bodies[k%len(in.bodies)])
				o.k = k
				mu.Lock()
				all = append(all, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// tally checks outcomes against the references and counts them as
// operations; it returns how many succeeded.
func tally(b *bench, refs map[[2]int][]byte, outs []outcome) int64 {
	var ok int64
	for _, o := range outs {
		k := o.k
		good := o.err == nil && o.status/100 == 2
		if good {
			ref := refs[[2]int{k % serveBodies, endpointIndex(k)}]
			good = bytes.Equal(o.body, ref)
			b.check(good, "serve: %s body %d: canonical response differs from its reference", requestPath(k), k%serveBodies)
		} else {
			b.check(false, "serve: %s body %d: status %d %v", requestPath(k), k%serveBodies, o.status, o.err)
		}
		b.op(!good)
		if good {
			ok++
		}
	}
	return ok
}

// serveLoad runs the reference pass, the open loop and the closed loop
// against one server.
func serveLoad(b *bench, in serveInput, reg *obs.Registry) (*serveRun, float64) {
	s, err := startServer(in.bundle, reg, b.workers)
	if err != nil {
		b.check(false, "serve: listen: %v", err)
		return nil, 0
	}
	r := &serveRun{}
	var errs []float64
	r.refs, errs = reference(b, s, in)
	minOpen := float64(serveMinSamples)/serveRate + 1 // seconds
	openFor := max(b.seconds, time.Duration(minOpen*float64(time.Second)))
	r.open, r.lag = openLoop(s, in, serveRate, openFor, b.workers)
	r.closedAll, r.closedFor = closedLoop(s, in, serveClosedRequests, b.workers)
	b.check(s.stop() == nil, "serve: shutdown failed")
	return r, quantile(errs, 0.68)
}

// countResults tallies both phases.
func (r *serveRun) countResults(b *bench) {
	tally(b, r.refs, r.open)
	r.closedOK = tally(b, r.refs, r.closedAll)
}

// runServe measures latency at the fixed open-loop rate, then capacity in
// the closed loop.
func runServe(b *bench) {
	in, setupS := timedSetup(func() serveInput { return setupServe(b) })
	heap := startHeapSampler()
	r, c68 := serveLoad(b, in, nil)
	peak := heap.Stop()
	if r == nil {
		return
	}
	r.countResults(b)
	b.check(c68 < serveMaxC68Deg, "serve c68 %.2f° exceeds %d°", c68, serveMaxC68Deg)
	var lat []float64
	for _, o := range r.open {
		lat = append(lat, ms(o.latency))
	}
	b.set("setup_s", setupS, "s")
	b.set("peak_heap_mb", peak, "MB")
	b.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	b.set("latency_tail_ms", quantile(lat, serveTailPct/100.0), "ms")
	b.set("throughput_per_s", float64(r.closedOK)/r.closedFor.Seconds(), "1/s")
	b.info["serve"] = map[string]any{
		"open_loop_requests": len(r.open), "rate_per_s": serveRate, "tail_percentile": serveTailPct,
		"closed_loop_requests": len(r.closedAll), "connections": b.workers,
		"throughput": "closed-loop 2xx responses per second", "c68_deg": c68,
	}
}

// traceServe repeats the serve run with a registry attached and reads the
// server's stage and batcher metrics from it (Sum and Count only), then
// times request decoding and the int8 kernel directly.
func traceServe(b *bench) {
	in := setupServe(b)
	reg := obs.NewRegistry()
	r, _ := serveLoad(b, in, reg)
	if r == nil {
		return
	}
	r.countResults(b)

	stage := func(name, metric string) {
		h := reg.Stage(name)
		b.set(metric, ms(h.Sum())/float64(max(h.Count(), 1)), "ms")
	}
	stage("serve_queue_wait", "serve.queue_wait_ms")
	stage("serve_localize", "serve.localize_ms")
	stage("serve_skymap", "serve.skymap_ms")
	stage("serve_nn_batch", "serve.nn_batch_ms")
	batches := float64(max(reg.Counter("serve_nn_batches").Load(), 1))
	b.set("serve.nn_batch_rows_mean", float64(reg.Counter("serve_nn_batch_rows").Load())/batches, "count")
	b.set("serve.nn_coalesced_mean", float64(reg.Counter("serve_nn_coalesced").Load())/batches, "count")

	var sent, ok, rejected, failed, respBytes float64
	var lag []float64
	for i, o := range r.open {
		sent++
		switch {
		case o.err == nil && o.status/100 == 2:
			ok++
		case o.status == http.StatusTooManyRequests:
			rejected++
		default:
			failed++
		}
		respBytes += float64(len(o.body))
		lag = append(lag, ms(r.lag[i]))
	}
	b.set("serve.sent", sent, "count")
	b.set("serve.ok", ok, "count")
	b.set("serve.rejected", rejected, "count")
	b.set("serve.failed", failed, "count")
	b.set("serve.response_bytes", respBytes/max(sent, 1), "B")
	b.set("loadgen.lag_ms", mean(lag), "ms")

	var decode span
	for _, body := range in.bodies {
		decode.timeSpan(func() {
			_, err := evio.NewReader(bytes.NewReader(body)).ReadAll()
			b.check(err == nil, "serve trace: decode: %v", err)
		})
	}
	b.set("evio.decode_ms", ms(decode.d)/serveBodies, "ms")
	b.set("evio.decode_ms.allocs", float64(decode.allocs)/serveBodies, "count")

	ns, allocs := int8NsPerRow(b, in)
	b.set("nn.bkg_int8_ns_per_row", ns, "ns")
	b.set("nn.bkg_int8_ns_per_row.allocs", allocs, "count")
}

// int8NsPerRow times Int8Net.ProbsInto on a 512-row batch of normalized
// features from the first request body.
func int8NsPerRow(b *bench, in serveInput) (ns, allocsPerRow float64) {
	const rows = 512
	events, err := evio.Unmarshal(in.bodies[0])
	if err != nil {
		b.check(false, "serve trace: unmarshal: %v", err)
		return 0, 0
	}
	pool := par.NewPool(1)
	rcfg := recon.DefaultConfig()
	rings := reconstructAll(&rcfg, events, pool)
	if len(rings) == 0 {
		b.check(false, "serve trace: body 0 has no rings")
		return 0, 0
	}
	for len(rings) < rows {
		rings = append(rings, rings...)
	}
	x := features.MatrixWith(pool, rings[:rows], 30, in.bundle.WithPolar)
	in.bundle.BkgNorm.Apply(x)
	out := make([]float32, rows)
	net := in.bundle.Int8
	net.ProbsInto(x, out) // warm-up
	const reps = 20       // calls per span, so the span's own cost is negligible
	var s span
	calls := 0
	for s.d < 500*time.Millisecond {
		s.timeSpan(func() {
			for i := 0; i < reps; i++ {
				net.ProbsInto(x, out)
			}
		})
		calls += reps
	}
	n := float64(calls * rows)
	return float64(s.d) / n, float64(s.allocs) / n
}
