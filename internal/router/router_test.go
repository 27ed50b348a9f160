package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// simulateBody builds one burst+background exposure as an evio payload.
func simulateBody(t *testing.T, fluence, polar float64, seed uint64) []byte {
	t.Helper()
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rng := xrand.New(seed)
	burst := detector.Burst{Fluence: fluence, PolarDeg: polar, AzimuthDeg: 77}
	events := detector.SimulateBurst(&det, burst, rng)
	events = append(events, bg.Simulate(&det, 0.5, rng)...)
	var buf bytes.Buffer
	if err := evio.WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newReplicas boots n real adaptserve servers (no-ML pipeline: localize
// is fully deterministic without models) and returns their base URLs.
func newReplicas(t *testing.T, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := serve.New(serve.Config{MaxConcurrent: 2, QueueDepth: 32})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		urls[i] = ts.URL
	}
	return urls
}

// newRouter builds a probed, ready-to-route Router over the URLs.
func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Hour // tests drive probes explicitly
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.ProbeNow(context.Background())
	return rt
}

func postBody(t *testing.T, client *http.Client, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Post(url, serve.ContentTypeEvio, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestRoutedBitwiseIdentical is the routing acceptance test: a request
// through the router returns byte-for-byte what every replica returns
// directly (with ?canonical=1 zeroing the per-run timing noise), because
// the backends are deterministic and the router is transparent. It holds
// for localizations and for sky maps.
func TestRoutedBitwiseIdentical(t *testing.T) {
	urls := newReplicas(t, 3)
	rt := newRouter(t, Config{Replicas: append([]string(nil), urls...)})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	body := simulateBody(t, 1.0, 30, 7)
	for _, q := range []string{"/v1/localize?seed=7&canonical=1", "/v1/skymap?seed=7&canonical=1"} {
		var direct [][]byte
		for _, u := range urls {
			resp, b := postBody(t, http.DefaultClient, u+q, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("direct POST %s = %d: %s", q, resp.StatusCode, b)
			}
			direct = append(direct, b)
		}
		for i := 1; i < len(direct); i++ {
			if !bytes.Equal(direct[i], direct[0]) {
				t.Fatalf("%s: replicas disagree with each other:\n%s\n%s", q, direct[0], direct[i])
			}
		}

		resp, routed := postBody(t, http.DefaultClient, rts.URL+q, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("routed POST %s = %d: %s", q, resp.StatusCode, routed)
		}
		if !bytes.Equal(routed, direct[0]) {
			t.Fatalf("%s: routed body differs from direct:\nrouted: %s\ndirect: %s", q, routed, direct[0])
		}
		if got := resp.Header.Get(headerCache); got != "miss" {
			t.Errorf("%s: first routed request cache state = %q, want miss", q, got)
		}
		if resp.Header.Get(serve.HeaderBackend) != "float32" {
			t.Errorf("%s: missing/wrong %s header: %q", q, serve.HeaderBackend, resp.Header.Get(serve.HeaderBackend))
		}
	}
}

// TestCacheHitBitwiseIdentical: a repeat of an identical request is a
// cache hit and returns exactly the missed response's bytes, for
// localizations and for sky maps.
func TestCacheHitBitwiseIdentical(t *testing.T) {
	urls := newReplicas(t, 2)
	rt := newRouter(t, Config{Replicas: urls})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	body := simulateBody(t, 1.0, 40, 11)
	paths := []string{"/v1/localize", "/v1/skymap"}
	for _, path := range paths {
		q := path + "?seed=3&canonical=1"
		resp1, b1 := postBody(t, http.DefaultClient, rts.URL+q, body)
		resp2, b2 := postBody(t, http.DefaultClient, rts.URL+q, body)
		if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
			t.Fatalf("%s: statuses %d, %d", path, resp1.StatusCode, resp2.StatusCode)
		}
		if got := resp2.Header.Get(headerCache); got != "hit" {
			t.Fatalf("%s: second request cache state = %q, want hit", path, got)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("%s: cache hit not bitwise-identical to miss:\nmiss: %s\nhit:  %s", path, b1, b2)
		}
		// Distinct query → distinct key → miss.
		resp3, _ := postBody(t, http.DefaultClient, rts.URL+path+"?seed=4&canonical=1", body)
		if got := resp3.Header.Get(headerCache); got != "miss" {
			t.Errorf("%s: different seed cache state = %q, want miss", path, got)
		}
	}
	reg := rt.Metrics()
	if hits := reg.Counter("router_cache_hits").Load(); hits != int64(len(paths)) {
		t.Errorf("router_cache_hits = %d, want %d", hits, len(paths))
	}
	if misses := reg.Counter("router_cache_misses").Load(); misses != 2*int64(len(paths)) {
		t.Errorf("router_cache_misses = %d, want %d", misses, 2*len(paths))
	}
}

// fakeReplica is a scriptable upstream: a /readyz that reports a healthy
// JSON body and a /v1/localize whose behavior the test controls.
type fakeReplica struct {
	ts       *httptest.Server
	attempts atomic.Int64
	handler  atomic.Pointer[http.HandlerFunc]
	ready    atomic.Bool
}

func newFakeReplica(t *testing.T) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		status := http.StatusOK
		rdy := f.ready.Load()
		if !rdy {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(serve.ReadyzResponse{
			Ready: rdy, InFlight: 0, QueueDepth: 0,
			MaxConcurrent: 4, QueueLimit: 16,
			ModelGeneration: 0, Backend: "float32",
		})
	})
	mux.HandleFunc("/v1/localize", func(w http.ResponseWriter, r *http.Request) {
		f.attempts.Add(1)
		(*f.handler.Load())(w, r)
	})
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(serve.HeaderModelGeneration, "0")
		w.Header().Set(serve.HeaderBackend, "float32")
		io.Copy(io.Discard, r.Body)
		fmt.Fprintln(w, `{"ok":true,"fake":1}`)
	})
	f.handler.Store(&ok)
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) respond(h http.HandlerFunc) { f.handler.Store(&h) }

// TestRetryBudgetNeverExceeded injects persistent faults and counts the
// upstream attempts the router actually makes: never more than
// 1 + RetryBudget, for 5xx, 429, and timeout faults alike.
func TestRetryBudgetNeverExceeded(t *testing.T) {
	cases := []struct {
		name       string
		fail       func(w http.ResponseWriter, r *http.Request)
		wantStatus int
	}{
		{"5xx", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "boom", http.StatusInternalServerError)
		}, http.StatusInternalServerError},
		{"429", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "full", http.StatusTooManyRequests)
		}, http.StatusTooManyRequests},
		{"timeout", func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(2 * time.Second) // far beyond AttemptTimeout
		}, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fakes := []*fakeReplica{newFakeReplica(t), newFakeReplica(t), newFakeReplica(t)}
			var urls []string
			for _, f := range fakes {
				f.respond(tc.fail)
				urls = append(urls, f.ts.URL)
			}
			const budget = 2
			rt := newRouter(t, Config{
				Replicas:       urls,
				RetryBudget:    budget,
				RetryAfterCap:  20 * time.Millisecond,
				AttemptTimeout: 150 * time.Millisecond,
				FailThreshold:  100, // keep replicas routable so attempts hit the budget, not ejection
			})
			rts := httptest.NewServer(rt.Handler())
			defer rts.Close()

			resp, body := postBody(t, http.DefaultClient, rts.URL+"/v1/localize", []byte("payload"))
			var total int64
			for _, f := range fakes {
				total += f.attempts.Load()
			}
			if total > budget+1 {
				t.Fatalf("%d upstream attempts, budget allows %d", total, budget+1)
			}
			if tc.name != "timeout" && total != budget+1 {
				t.Errorf("%d upstream attempts, want exactly %d (budget exhausted)", total, budget+1)
			}
			if resp.StatusCode != tc.wantStatus {
				t.Errorf("final status = %d (%s), want %d", resp.StatusCode, body, tc.wantStatus)
			}
			if got := rt.Metrics().Counter("router_retries").Load(); got > budget {
				t.Errorf("router_retries = %d, want <= %d", got, budget)
			}
		})
	}
}

// TestRetryAfterHonored: a 429 with Retry-After delays the retry by the
// (capped) hint, and the retry succeeds on a recovered replica.
func TestRetryAfterHonored(t *testing.T) {
	f := newFakeReplica(t)
	var first atomic.Bool
	first.Store(true)
	okBody := `{"ok":true}` + "\n"
	f.respond(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(true, false) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "full", http.StatusTooManyRequests)
			return
		}
		w.Header().Set(serve.HeaderModelGeneration, "0")
		w.Header().Set(serve.HeaderBackend, "float32")
		io.WriteString(w, okBody)
	})
	const cap = 300 * time.Millisecond
	rt := newRouter(t, Config{
		Replicas:      []string{f.ts.URL},
		RetryBudget:   2,
		RetryAfterCap: cap,
	})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	t0 := time.Now()
	resp, body := postBody(t, http.DefaultClient, rts.URL+"/v1/localize", []byte("x"))
	elapsed := time.Since(t0)
	if resp.StatusCode != http.StatusOK || string(body) != okBody {
		t.Fatalf("final = %d %q", resp.StatusCode, body)
	}
	if elapsed < cap {
		t.Errorf("retried after %v, want >= %v (capped Retry-After honored)", elapsed, cap)
	}
	if got := resp.Header.Get(headerAttempts); got != "2" {
		t.Errorf("attempts header = %q, want 2", got)
	}
}

// TestFailoverAndEjection: a replica that dies must not fail any request
// (transport errors retry on survivors), and the router ejects it after
// its failure streak. It holds for a replica dead before the first
// request and for one killed while requests are in flight.
func TestFailoverAndEjection(t *testing.T) {
	t.Run("dead before traffic", func(t *testing.T) {
		urls := newReplicas(t, 2)
		dead := newFakeReplica(t)
		all := append(append([]string(nil), urls...), dead.ts.URL)
		rt := newRouter(t, Config{
			Replicas:      all,
			RetryBudget:   3,
			FailThreshold: 2,
		})
		rts := httptest.NewServer(rt.Handler())
		defer rts.Close()

		body := simulateBody(t, 1.0, 20, 5)
		// Kill the fake replica outright: connection-refused transport errors.
		dead.ts.Close()

		// Every request must still succeed. The ring places replicas by URL,
		// and the ports are random, so keep sending until at least
		// FailThreshold requests had the dead replica as their first choice.
		deadFirst := 0
		for i := 0; i < 12 || deadFirst < 2; i++ {
			if i == 1000 {
				t.Fatal("no request routes to the dead replica first")
			}
			q := fmt.Sprintf("/v1/localize?seed=%d&canonical=1", i+1)
			u, err := url.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, ringKey := contentKey(u.Path, u.Query(), body); rt.replicas[rt.ring.Candidates(ringKey)[0]].name == dead.ts.URL {
				deadFirst++
			}
			resp, b := postBody(t, http.DefaultClient, rts.URL+q, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d failed: %d %s", i, resp.StatusCode, b)
			}
		}
		// The request-path failure streak alone must have ejected it.
		var deadState *replicaState
		for _, rep := range rt.replicas {
			if rep.name == dead.ts.URL {
				deadState = rep
			}
		}
		if deadState == nil {
			t.Fatal("dead replica not found in router state")
		}
		if deadState.healthy.Load() {
			t.Error("dead replica still marked healthy after failure streak")
		}
		if got := rt.Metrics().Counter("router_ejections").Load(); got < 1 {
			t.Errorf("router_ejections = %d, want >= 1", got)
		}

		// Once ejected, requests no longer pay the connection-refused tax:
		// no retries needed.
		before := rt.Metrics().Counter("router_retries").Load()
		for i := 0; i < 4; i++ {
			q := fmt.Sprintf("/v1/localize?seed=%d&canonical=1", 100+i)
			resp, _ := postBody(t, http.DefaultClient, rts.URL+q, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("post-ejection request failed: %d", resp.StatusCode)
			}
		}
		if after := rt.Metrics().Counter("router_retries").Load(); after != before {
			t.Errorf("ejected replica still receiving attempts: retries %d -> %d", before, after)
		}
	})
	t.Run("killed mid-load", testKilledMidLoad)
}

// testKilledMidLoad fronts three real replicas, keeps requests in flight
// from several clients, and kills one replica, listener and open
// connections, while one of its requests is being served. Every request
// must succeed, at least 10 of them, and the dead replica must be ejected:
// router_ejections >= 1 and /readyz one healthy replica short.
func testKilledMidLoad(t *testing.T) {
	var urls []string
	var victim *httptest.Server
	inVictim := make(chan struct{}, 1)
	for i := 0; i < 3; i++ {
		h := serve.New(serve.Config{MaxConcurrent: 2, QueueDepth: 32}).Handler()
		if i == 1 {
			next := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path == "/v1/localize" {
					select {
					case inVictim <- struct{}{}:
					default:
					}
				}
				next.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		if i == 1 {
			victim = ts
		}
		urls = append(urls, ts.URL)
	}
	rt := newRouter(t, Config{Replicas: urls, RetryBudget: 3, FailThreshold: 2})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()
	body := simulateBody(t, 1.0, 30, 7)
	if got := healthyReplicas(t, rt); got != 3 {
		t.Fatalf("/readyz healthy_replicas = %d before the kill, want 3", got)
	}

	// One repeat first, so the exposition carries the cache-hit family.
	for i := 0; i < 2; i++ {
		if resp, b := postBody(t, http.DefaultClient, rts.URL+"/v1/localize?seed=7&canonical=1", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("warm-up request: %d %s", resp.StatusCode, b)
		}
	}
	select {
	case <-inVictim: // a warm-up request, long answered
	default:
	}

	// Distinct seeds defeat the cache, so every request is routed.
	var sent, failed atomic.Int64
	ejected := func() bool { return rt.Metrics().Counter("router_ejections").Load() >= 1 }
	killed := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-killed:
					if ejected() && sent.Load() >= 10 {
						return
					}
				default:
				}
				n := sent.Add(1)
				if n > 1000 {
					return
				}
				resp, err := http.Post(fmt.Sprintf("%s/v1/localize?seed=%d&canonical=1", rts.URL, n+100), serve.ContentTypeEvio, bytes.NewReader(body))
				if err != nil {
					failed.Add(1)
					t.Errorf("request %d: %v", n, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failed.Add(1)
					t.Errorf("request %d failed: %d", n, resp.StatusCode)
				}
			}
		}()
	}
	<-inVictim
	victim.Listener.Close()
	victim.CloseClientConnections()
	close(killed)
	wg.Wait()

	if n := sent.Load(); n < 10 || n > 1000 {
		t.Fatalf("%d requests sent; want at least 10 before the dead replica is ejected", n)
	}
	if failed.Load() != 0 {
		t.Fatalf("%d of %d requests failed while a replica died", failed.Load(), sent.Load())
	}
	if !ejected() {
		t.Fatal("dead replica not ejected")
	}
	if got := healthyReplicas(t, rt); got != 2 {
		t.Errorf("/readyz healthy_replicas = %d after the kill, want 2", got)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	metrics := rec.Body.String()
	for _, family := range []string{"adapt_build_info", "adapt_router_cache_hit_ratio",
		"adapt_router_cache_hits_total", "adapt_router_retries_total"} {
		if !contains(metrics, "\n"+family) {
			t.Errorf("metrics exposition lacks %s", family)
		}
	}
	if !regexp.MustCompile(`(?m)^adapt_router_ejections_total [1-9]`).MatchString(metrics) {
		t.Error("no ejection recorded in the metrics exposition")
	}
}

// healthyReplicas reads healthy_replicas from the router's /readyz.
func healthyReplicas(t *testing.T, rt *Router) int {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	var rr RouterReadyz
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	return rr.HealthyReplicas
}

// TestReadmission: a replica whose /readyz recovers is routed to again.
func TestReadmission(t *testing.T) {
	f := newFakeReplica(t)
	rt := newRouter(t, Config{Replicas: []string{f.ts.URL}, FailThreshold: 1})

	f.ready.Store(false)
	rt.ProbeNow(context.Background())
	if rt.replicas[0].healthy.Load() {
		t.Fatal("replica not ejected on unready probe")
	}
	if got := rt.Metrics().Counter("router_ejections").Load(); got != 1 {
		t.Errorf("router_ejections = %d, want 1", got)
	}

	f.ready.Store(true)
	rt.ProbeNow(context.Background())
	if !rt.replicas[0].healthy.Load() {
		t.Fatal("replica not readmitted on recovered probe")
	}
	if got := rt.Metrics().Counter("router_readmissions").Load(); got != 1 {
		t.Errorf("router_readmissions = %d, want 1", got)
	}
}

// TestSingleFlightCollapse: concurrent identical requests produce one
// upstream fetch and byte-identical responses for every caller.
func TestSingleFlightCollapse(t *testing.T) {
	f := newFakeReplica(t)
	release := make(chan struct{})
	f.respond(func(w http.ResponseWriter, r *http.Request) {
		<-release // hold the leader upstream until all followers join
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(serve.HeaderModelGeneration, "0")
		w.Header().Set(serve.HeaderBackend, "float32")
		io.Copy(io.Discard, r.Body)
		fmt.Fprintln(w, `{"ok":true,"collapsed":1}`)
	})
	rt := newRouter(t, Config{Replicas: []string{f.ts.URL}})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	const n = 8
	bodies := make([][]byte, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(rts.URL+"/v1/localize", serve.ContentTypeEvio, bytes.NewReader([]byte("same-body")))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Wait until the followers have had a chance to pile onto the flight,
	// then let the leader's upstream answer.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().Counter("router_collapsed").Load() < n-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := f.attempts.Load(); got != 1 {
		t.Errorf("upstream saw %d requests, want 1 (single-flight)", got)
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("collapsed response %d differs", i)
		}
	}
	if got := rt.Metrics().Counter("router_collapsed").Load(); got != n-1 {
		t.Errorf("router_collapsed = %d, want %d", got, n-1)
	}
}

// TestRouterEndpoints covers readyz/fleet/metrics/version plumbing.
func TestRouterEndpoints(t *testing.T) {
	urls := newReplicas(t, 2)
	rt := newRouter(t, Config{Replicas: urls})
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(rts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	if resp, body := get("/readyz"); resp.StatusCode != 200 {
		t.Errorf("/readyz = %d %s", resp.StatusCode, body)
	} else {
		var rr RouterReadyz
		if err := json.Unmarshal([]byte(body), &rr); err != nil {
			t.Fatalf("readyz not JSON: %v", err)
		}
		if !rr.Ready || rr.HealthyReplicas != 2 || !rr.FleetUniform {
			t.Errorf("readyz = %+v", rr)
		}
	}

	if resp, body := get("/fleet"); resp.StatusCode != 200 {
		t.Errorf("/fleet = %d", resp.StatusCode)
	} else {
		var fr FleetResponse
		if err := json.Unmarshal([]byte(body), &fr); err != nil {
			t.Fatalf("fleet not JSON: %v", err)
		}
		if len(fr.Replicas) != 2 || !fr.Replicas[0].Healthy || fr.Replicas[0].Report == nil {
			t.Errorf("fleet = %+v", fr)
		}
	}

	// Route one request then check the exposition mentions the router
	// families.
	body := simulateBody(t, 0.5, 10, 3)
	postBody(t, http.DefaultClient, rts.URL+"/v1/localize?canonical=1", body)
	if _, metrics := get("/metrics"); !contains(metrics, "adapt_router_cache_hit_ratio") ||
		!contains(metrics, "adapt_router_replica_0_inflight") ||
		!contains(metrics, "adapt_router_requests_total") {
		t.Errorf("metrics exposition missing router families:\n%.400s", metrics)
	}
	if resp, body := get("/version"); resp.StatusCode != 200 || !contains(body, "router") {
		t.Errorf("/version = %d %s", resp.StatusCode, body)
	}
	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Errorf("/healthz = %d", resp.StatusCode)
	}
}

// TestRouterDrain: Shutdown flips readiness and stops the prober.
func TestRouterDrain(t *testing.T) {
	urls := newReplicas(t, 1)
	rt := newRouter(t, Config{Replicas: urls})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/readyz after drain = %d, want 503", rec.Code)
	}
}

// TestNoHealthyReplica: with every replica ejected the router answers 503
// without hanging.
func TestNoHealthyReplica(t *testing.T) {
	f := newFakeReplica(t)
	rt := newRouter(t, Config{Replicas: []string{f.ts.URL}, FailThreshold: 1})
	f.ready.Store(false)
	rt.ProbeNow(context.Background())
	rts := httptest.NewServer(rt.Handler())
	defer rts.Close()

	resp, body := postBody(t, http.DefaultClient, rts.URL+"/v1/localize", []byte("x"))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d %s, want 503", resp.StatusCode, body)
	}
	if got := rt.Metrics().Counter("router_no_replica").Load(); got != 1 {
		t.Errorf("router_no_replica = %d, want 1", got)
	}
}

func contains(s, sub string) bool { return bytes.Contains([]byte(s), []byte(sub)) }
