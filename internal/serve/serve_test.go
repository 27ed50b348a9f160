package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/background"
	"repro/internal/datagen"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/geom"
	"repro/internal/models"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

// tinyBundle trains a minimal model pair once for the package's tests.
var tinyBundle = func() func(t *testing.T) *models.Bundle {
	var once sync.Once
	var b *models.Bundle
	return func(t *testing.T) *models.Bundle {
		t.Helper()
		once.Do(func() {
			cfg := datagen.DefaultConfig(21)
			cfg.BurstsPerAngle = 1
			cfg.PolarAnglesDeg = []float64{0, 40, 80}
			set := datagen.Generate(cfg)
			opts := models.DefaultTrainOptions(22)
			opts.MaxEpochs = 4
			opts.BkgLR = 5e-3
			opts.BkgBatch = 512
			b = models.Train(set, opts)
		})
		return b
	}
}()

// simulateEvents builds one burst + background exposure.
func simulateEvents(fluence, polar float64, seed uint64) []*detector.Event {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rng := xrand.New(seed)
	burst := detector.Burst{Fluence: fluence, PolarDeg: polar, AzimuthDeg: 77}
	events := detector.SimulateBurst(&det, burst, rng)
	return append(events, bg.Simulate(&det, 1.0, rng)...)
}

// evioBody serializes events into an evio request payload.
func evioBody(t *testing.T, events []*detector.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := evio.WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postLocalize(t *testing.T, client *http.Client, url string, body []byte, ct string) (*LocalizeResponse, *http.Response) {
	t.Helper()
	resp, err := client.Post(url+"/v1/localize", ct, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/localize: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp
	}
	var lr LocalizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return &lr, resp
}

// TestLocalizeDeterminismEvio is the end-to-end determinism acceptance
// test: for the same evio event set, seed, and models, the service
// response is bitwise-identical to a direct adapt.Instrument call — even
// though the service routes NN inference through the shared micro-batcher.
func TestLocalizeDeterminismEvio(t *testing.T) {
	bundle := tinyBundle(t)
	events := simulateEvents(1.0, 30, 7)
	body := evioBody(t, events)

	srv := New(Config{Bundle: bundle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const seed = 9
	r2, err := ts.Client().Post(ts.URL+"/v1/localize?seed=9", ContentTypeEvio, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r2.StatusCode)
	}
	var viaSeed LocalizeResponse
	if err := json.NewDecoder(r2.Body).Decode(&viaSeed); err != nil {
		t.Fatal(err)
	}

	// The direct reference runs on the evio-round-tripped events — exactly
	// the bytes the service decoded.
	ref, err := evio.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	inst := adapt.DefaultInstrument()
	direct := inst.LocalizeEvents(ref, bundle, seed)

	if !viaSeed.OK || !direct.Loc.OK {
		t.Fatalf("localization failed: service OK=%v direct OK=%v", viaSeed.OK, direct.Loc.OK)
	}
	cmp := func(name string, got, want float64) {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: service %v != direct %v (not bitwise identical)", name, got, want)
		}
	}
	cmp("dir.x", viaSeed.Dir.X, direct.Loc.Dir.X)
	cmp("dir.y", viaSeed.Dir.Y, direct.Loc.Dir.Y)
	cmp("dir.z", viaSeed.Dir.Z, direct.Loc.Dir.Z)
	cmp("error_radius_deg", viaSeed.ErrorRadiusDeg, direct.ErrorRadiusDeg)
	if viaSeed.Rings != direct.Rings || viaSeed.Kept != direct.Kept ||
		viaSeed.NNIterations != direct.NNIterations {
		t.Errorf("counts differ: service (%d,%d,%d) direct (%d,%d,%d)",
			viaSeed.Rings, viaSeed.Kept, viaSeed.NNIterations,
			direct.Rings, direct.Kept, direct.NNIterations)
	}
	if !viaSeed.ML {
		t.Error("response should report ml=true")
	}
}

// TestLocalizeJSONBody drives the JSON request schema and checks it
// matches a direct run on the same (un-rounded) events.
func TestLocalizeJSONBody(t *testing.T) {
	events := simulateEvents(0.8, 20, 3)
	req := LocalizeRequest{Seed: 5}
	for _, ev := range events {
		je := EventJSON{ArrivalS: ev.ArrivalTime}
		for _, h := range ev.Hits {
			je.Hits = append(je.Hits, HitJSON{
				PosCm:     [3]float64{h.Pos.X, h.Pos.Y, h.Pos.Z},
				EMeV:      h.E,
				SigmaCm:   [3]float64{h.SigmaX, h.SigmaY, h.SigmaZ},
				SigmaEMeV: h.SigmaE,
				Layer:     h.Layer,
			})
		}
		req.Events = append(req.Events, je)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}

	srv := New(Config{}) // no models: prior pipeline
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	got, resp := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeJSON)
	if got == nil {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got.ML {
		t.Error("no-model server must report ml=false")
	}

	// Ground-truth fields are stripped by the JSON schema; rebuild plain
	// events for the reference run.
	stripped := make([]*detector.Event, len(events))
	for i, ev := range events {
		stripped[i] = &detector.Event{Hits: ev.Hits, ArrivalTime: ev.ArrivalTime}
	}
	inst := adapt.DefaultInstrument()
	direct := inst.LocalizeEvents(stripped, nil, 5)
	if !got.OK || !direct.Loc.OK {
		t.Fatalf("localization failed: service %v direct %v", got.OK, direct.Loc.OK)
	}
	if math.Float64bits(got.Dir.X) != math.Float64bits(direct.Loc.Dir.X) ||
		math.Float64bits(got.Dir.Y) != math.Float64bits(direct.Loc.Dir.Y) ||
		math.Float64bits(got.Dir.Z) != math.Float64bits(direct.Loc.Dir.Z) {
		t.Errorf("JSON-path direction differs from direct run: %+v vs %+v", got.Dir, direct.Loc.Dir)
	}
}

// TestConcurrentLoadThroughBatcher is the load acceptance test: ≥32
// concurrent requests share the micro-batcher; every admitted request gets
// a response, and every response is identical (the batcher must not leak
// rows across requests).
func TestConcurrentLoadThroughBatcher(t *testing.T) {
	bundle := tinyBundle(t)
	events := simulateEvents(0.6, 40, 11)
	body := evioBody(t, events)

	srv := New(Config{
		Bundle:        bundle,
		MaxConcurrent: 8,
		QueueDepth:    64,   // roomy: nothing should be rejected
		BatchRows:     4096, // several requests' rows fit one batch
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Timeout = 120 * time.Second

	const n = 32
	type out struct {
		resp   *LocalizeResponse
		status int
	}
	results := make([]out, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := client.Post(ts.URL+"/v1/localize?seed=4", ContentTypeEvio, bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer r.Body.Close()
			results[i].status = r.StatusCode
			if r.StatusCode == http.StatusOK {
				var lr LocalizeResponse
				if err := json.NewDecoder(r.Body).Decode(&lr); err != nil {
					t.Errorf("request %d: decode: %v", i, err)
					return
				}
				results[i].resp = &lr
			}
		}(i)
	}
	wg.Wait()

	var first *LocalizeResponse
	for i := range results {
		if results[i].status != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200 (queue depth was ample)", i, results[i].status)
		}
		lr := results[i].resp
		if lr == nil || !lr.OK {
			t.Fatalf("request %d: missing or failed localization", i)
		}
		if first == nil {
			first = lr
			continue
		}
		if math.Float64bits(lr.Dir.X) != math.Float64bits(first.Dir.X) ||
			math.Float64bits(lr.Dir.Y) != math.Float64bits(first.Dir.Y) ||
			math.Float64bits(lr.Dir.Z) != math.Float64bits(first.Dir.Z) ||
			lr.Rings != first.Rings || lr.Kept != first.Kept {
			t.Errorf("request %d: result differs under concurrency: %+v vs %+v", i, lr, first)
		}
	}
	// The batcher must actually have coalesced work across requests.
	if srv.Metrics().Counter("serve_nn_batches").Load() == 0 {
		t.Error("micro-batcher never ran")
	}
	if got := srv.Metrics().Counter("serve_localize_ok").Load(); got != n {
		t.Errorf("serve_localize_ok = %d, want %d", got, n)
	}
}

// TestOverloadBackpressure fills the queue and checks 429 + Retry-After,
// then that the queue is not wedged afterwards.
func TestOverloadBackpressure(t *testing.T) {
	bundle := tinyBundle(t)
	body := evioBody(t, simulateEvents(1.0, 30, 13))

	srv := New(Config{
		Bundle:        bundle,
		MaxConcurrent: 1,
		QueueDepth:    -1, // no waiting room: 2nd concurrent request is refused
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()
	client.Timeout = 120 * time.Second

	const n = 16
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := client.Post(ts.URL+"/v1/localize", ContentTypeEvio, bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer r.Body.Close()
			statuses[i] = r.StatusCode
			retryAfter[i] = r.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	okN, rejN := 0, 0
	for i, st := range statuses {
		switch st {
		case http.StatusOK:
			okN++
		case http.StatusTooManyRequests:
			rejN++
			if retryAfter[i] == "" {
				t.Errorf("429 response %d missing Retry-After", i)
			}
		default:
			t.Errorf("request %d: unexpected status %d", i, st)
		}
	}
	if okN == 0 {
		t.Error("no request succeeded under overload")
	}
	if rejN == 0 {
		t.Error("no request was rejected: overload never triggered (flaky only if runs fully serialized)")
	}
	// The queue must recover: a single follow-up request succeeds.
	lr, resp := postLocalize(t, client, ts.URL, body, ContentTypeEvio)
	if lr == nil {
		t.Fatalf("post-overload request failed with status %d: queue wedged", resp.StatusCode)
	}
	if got := srv.Metrics().Counter("serve_localize_rejected").Load(); got != int64(rejN) {
		t.Errorf("serve_localize_rejected = %d, want %d", got, rejN)
	}
}

// TestGracefulDrain starts a real listener, puts requests in flight, and
// checks Shutdown completes them all before returning.
func TestGracefulDrain(t *testing.T) {
	bundle := tinyBundle(t)
	body := evioBody(t, simulateEvents(1.0, 30, 17))

	srv := New(Config{Bundle: bundle, MaxConcurrent: 2, QueueDepth: 16})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	// Readiness up.
	r, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", r.StatusCode)
	}

	const n = 6
	var wg sync.WaitGroup
	statuses := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client := &http.Client{Timeout: 120 * time.Second}
			resp, err := client.Post(base+"/v1/localize", ContentTypeEvio, bytes.NewReader(body))
			if err != nil {
				t.Errorf("in-flight request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
		}(i)
	}

	// Let the requests reach the server before draining.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Counter("serve_localize_requests").Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("in-flight request %d got status %d during drain", i, st)
		}
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve returned %v after Shutdown", err)
	}
	// Draining flips readiness (checked via the handler directly; the
	// listener is closed by now).
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d after drain, want 503", rec.Code)
	}
}

// TestHotReload installs models into a running no-ML server and checks
// in-flight semantics: old requests finish, new requests use the models.
func TestHotReload(t *testing.T) {
	bundle := tinyBundle(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "models.gob")
	if err := adapt.SaveModels(bundle, path); err != nil {
		t.Fatal(err)
	}
	body := evioBody(t, simulateEvents(0.8, 30, 19))

	// Explicit sizing: on a small GOMAXPROCS box the defaults are tight
	// enough that this test's 8-way burst would (correctly) see 429s.
	srv := New(Config{MaxConcurrent: 4, QueueDepth: 64})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before, _ := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
	if before == nil || before.ML {
		t.Fatalf("pre-reload request: %+v", before)
	}

	reload, err := ts.Client().Post(ts.URL+"/admin/reload", ContentTypeJSON,
		strings.NewReader(fmt.Sprintf(`{"path": %q}`, path)))
	if err != nil {
		t.Fatal(err)
	}
	defer reload.Body.Close()
	if reload.StatusCode != http.StatusOK {
		t.Fatalf("/admin/reload = %d", reload.StatusCode)
	}

	after, _ := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
	if after == nil || !after.ML {
		t.Fatalf("post-reload request not using models: %+v", after)
	}
	if after.NNIterations == 0 {
		t.Error("post-reload run never entered the NN loop")
	}

	// Reload again while requests are in flight: nobody drops.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lr, resp := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
			if lr == nil {
				t.Errorf("in-flight request during reload: status %d", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < 3; i++ {
		r, err := ts.Client().Post(ts.URL+"/admin/reload", ContentTypeJSON,
			strings.NewReader(fmt.Sprintf(`{"path": %q}`, path)))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
	}
	wg.Wait()

	// Bad path must not clobber the live generation.
	r, err := ts.Client().Post(ts.URL+"/admin/reload", ContentTypeJSON,
		strings.NewReader(`{"path": "/nonexistent/models.gob"}`))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad reload = %d, want 422", r.StatusCode)
	}
	still, _ := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
	if still == nil || !still.ML {
		t.Error("failed reload dropped the live models")
	}
}

// TestClassifyEndpoint scores a batch of events and cross-checks the
// flags against the returned threshold.
func TestClassifyEndpoint(t *testing.T) {
	bundle := tinyBundle(t)
	body := evioBody(t, simulateEvents(0.8, 40, 23))

	srv := New(Config{Bundle: bundle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/classify?polar=40", ContentTypeEvio, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var cr ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.Rings == 0 {
		t.Fatal("no rings reconstructed")
	}
	if len(cr.Probs) != cr.Rings || len(cr.Background) != cr.Rings {
		t.Fatalf("array sizes: %d probs, %d flags, %d rings", len(cr.Probs), len(cr.Background), cr.Rings)
	}
	for i, p := range cr.Probs {
		if p < 0 || p > 1 {
			t.Errorf("prob %d = %v out of range", i, p)
		}
		if cr.Background[i] != (p > cr.Threshold) {
			t.Errorf("flag %d inconsistent with threshold", i)
		}
	}

	// Without models the endpoint refuses rather than guessing.
	bare := New(Config{})
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	r2, err := tsBare.Client().Post(tsBare.URL+"/v1/classify", ContentTypeEvio, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("no-model classify = %d, want 503", r2.StatusCode)
	}
}

// TestEndpointsMisc covers health, version, metrics, and bad input paths.
func TestEndpointsMisc(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return r, sb.String()
	}

	if r, body := get("/healthz"); r.StatusCode != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", r.StatusCode, body)
	}
	if r, body := get("/readyz"); r.StatusCode != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("/readyz = %d %q", r.StatusCode, body)
	}
	if r, body := get("/metrics"); r.StatusCode != http.StatusOK ||
		!strings.Contains(body, "adapt_build_info") || !strings.Contains(body, "adapt_models_loaded 0") {
		t.Errorf("/metrics = %d %q", r.StatusCode, body)
	}
	if r, body := get("/version"); r.StatusCode != http.StatusOK || !strings.Contains(body, "go_version") {
		t.Errorf("/version = %d %q", r.StatusCode, body)
	}

	// One localization: an OK result with its timing, counted once.
	r, err := ts.Client().Post(ts.URL+"/v1/localize?seed=7", ContentTypeEvio,
		bytes.NewReader(evioBody(t, simulateEvents(1.0, 30, 7))))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok":true`) || !strings.Contains(string(b), `"timing_ms"`) {
		t.Errorf("/v1/localize = %d %s", r.StatusCode, b)
	}
	if _, body := get("/metrics"); !strings.Contains(body, "adapt_serve_localize_ok_total 1") ||
		!strings.Contains(body, `adapt_stage_duration_seconds_count{stage="serve_localize"} 1`) {
		t.Errorf("/metrics after one localization:\n%s", body)
	}

	// GET on a POST endpoint.
	if r, _ := get("/v1/localize"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/localize = %d, want 405", r.StatusCode)
	}
	// Garbage bodies are 400s, not panics.
	for _, tc := range []struct{ ct, body string }{
		{ContentTypeEvio, "not evio at all"},
		{ContentTypeJSON, `{"events": [`},
		{ContentTypeJSON, `{"unknown_field": 1}`},
		{ContentTypeJSON, `{"events": []}`},
	} {
		r, err := ts.Client().Post(ts.URL+"/v1/localize", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", tc.body, r.StatusCode)
		}
	}
}

// TestLoadGenerator runs the built-in load generator against an httptest
// server and checks the report plumbing (percentiles from obs histograms).
func TestLoadGenerator(t *testing.T) {
	bundle := tinyBundle(t)
	body := evioBody(t, simulateEvents(0.5, 20, 29))

	srv := New(Config{Bundle: bundle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := RunLoad(context.Background(), LoadConfig{
		TargetURL:   ts.URL + "/v1/localize",
		Body:        body,
		QPS:         40,
		Duration:    1500 * time.Millisecond,
		Concurrency: 4,
		Client:      ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent == 0 || rep.OK == 0 {
		t.Fatalf("loadgen made no progress: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Errorf("loadgen saw %d failures", rep.Failed)
	}
	if rep.Latency.Count != rep.OK+rep.Rejected {
		t.Errorf("latency samples %d != completed %d", rep.Latency.Count, rep.OK+rep.Rejected)
	}
	if rep.Latency.P50Ms <= 0 || rep.Latency.P99Ms < rep.Latency.P50Ms {
		t.Errorf("implausible percentiles: %+v", rep.Latency)
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"p50", "p90", "p99", "ok "} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestAdmissionUnit pins the admission-control state machine.
func TestAdmissionUnit(t *testing.T) {
	a := newAdmission(1, 1)
	ctx := context.Background()
	if err := a.acquire(ctx); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second caller fits in the waiting room but must time out waiting.
	ctx2, cancel2 := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel2()
	errc := make(chan error, 1)
	go func() { errc <- a.acquire(ctx2) }()
	// Third caller overflows the waiting room immediately.
	time.Sleep(5 * time.Millisecond)
	if err := a.acquire(ctx); err != errOverload {
		t.Errorf("third acquire = %v, want overload", err)
	}
	if err := <-errc; err != context.DeadlineExceeded {
		t.Errorf("queued acquire = %v, want deadline exceeded", err)
	}
	// Slot holder releases; the queue must accept again.
	a.release()
	if err := a.acquire(ctx); err != nil {
		t.Errorf("post-release acquire: %v", err)
	}
	a.release()
	if q := a.queued(); q != 0 {
		t.Errorf("queued = %d after all releases", q)
	}
}

// TestSkymapEndpoint drives POST /v1/skymap: the canonical response must
// be bitwise-deterministic across repeated requests (the property the
// router's exact result cache relies on), the payload must decode and
// round-trip, and its peak must agree with /v1/localize on the same body.
func TestSkymapEndpoint(t *testing.T) {
	bundle := tinyBundle(t)
	events := simulateEvents(1.0, 30, 7)
	body := evioBody(t, events)

	srv := New(Config{Bundle: bundle})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(url string) ([]byte, int) {
		resp, err := ts.Client().Post(url, ContentTypeEvio, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return raw, resp.StatusCode
	}

	url := ts.URL + "/v1/skymap?seed=9&canonical=1"
	raw1, code1 := post(url)
	raw2, code2 := post(url)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status %d / %d", code1, code2)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("canonical /v1/skymap responses are not bitwise identical")
	}

	var sr SkymapResponse
	if err := json.Unmarshal(raw1, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.OK || sr.SkyMapB64 == "" {
		t.Fatalf("no map in response: %+v", sr)
	}
	m, err := skymap.DecodeBase64(sr.SkyMapB64)
	if err != nil {
		t.Fatalf("payload does not decode: %v", err)
	}
	if m.EncodeBase64() != sr.SkyMapB64 {
		t.Fatal("payload does not round-trip through the endpoint")
	}
	if sr.PayloadBytes != m.EncodedSize() {
		t.Errorf("payload_bytes %d, actual %d", sr.PayloadBytes, m.EncodedSize())
	}
	if sr.Temperature != skymap.DefaultTemperature {
		t.Errorf("default temperature %v, want %v", sr.Temperature, skymap.DefaultTemperature)
	}
	if sr.Area68Deg2 <= 0 || sr.Area68Deg2 > sr.Area90Deg2 {
		t.Errorf("areas (%v, %v) not ordered", sr.Area68Deg2, sr.Area90Deg2)
	}

	// The localized direction the same request produces lies inside the
	// map's tempered 90% credible region. (The map is the background-aware
	// mixture surface, so its peak can sit a few pixels from the solver's
	// point estimate; containment is the contract a notice consumer needs.)
	lr, resp := postLocalize(t, ts.Client(), ts.URL, body, ContentTypeEvio)
	if lr == nil {
		t.Fatalf("localize status %d", resp.StatusCode)
	}
	if !m.Contains(geom.Vec{X: lr.Dir.X, Y: lr.Dir.Y, Z: lr.Dir.Z}, 0.90) {
		t.Error("localized direction outside the map's 90% credible region")
	}

	// The statistical map (temp=1) is narrower than the tempered default.
	rawT, codeT := post(ts.URL + "/v1/skymap?seed=9&canonical=1&temp=1")
	if codeT != http.StatusOK {
		t.Fatalf("temp=1 status %d", codeT)
	}
	var srT SkymapResponse
	if err := json.Unmarshal(rawT, &srT); err != nil {
		t.Fatal(err)
	}
	if srT.Temperature != 1 || srT.Area90Deg2 >= sr.Area90Deg2 {
		t.Errorf("temp=1 map (T=%v, area90=%v) not narrower than default (area90=%v)",
			srT.Temperature, srT.Area90Deg2, sr.Area90Deg2)
	}

	// Out-of-range parameters are a client error, not a panic.
	for _, q := range []string{"temp=-1", "bands=1", "bands=99", "refine=9"} {
		if _, code := post(ts.URL + "/v1/skymap?" + q); code != http.StatusBadRequest {
			t.Errorf("%s accepted with status %d", q, code)
		}
	}
}
