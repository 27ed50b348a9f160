package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/adapt"
	"repro/internal/buildinfo"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/features"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
)

// Config sizes the service.
type Config struct {
	// Instrument is the detector/pipeline configuration; nil means
	// adapt.DefaultInstrument(). Its Metrics field is overwritten with the
	// server's registry.
	Instrument *adapt.Instrument
	// Bundle is the initial model pair; nil starts the no-ML pipeline
	// (POST /admin/reload can install models later).
	Bundle *models.Bundle
	// ModelPath is the default path for /admin/reload, and provenance for
	// the initial bundle.
	ModelPath string
	// Backend selects the inference backend every generation of models is
	// served with ("" = float32). The server is pinned to it for its
	// lifetime and reports it in /version. New panics when the initial
	// bundle cannot implement it (int8 without a quantized model);
	// callers get friendlier errors by pre-validating with
	// adapt.NewClassifier.
	Backend adapt.Backend
	// MaxConcurrent bounds simultaneously computing requests (0 means the
	// process parallelism default, par.DefaultWorkers).
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a compute slot beyond
	// MaxConcurrent; anything past that is rejected with 429 (0 means
	// 4×MaxConcurrent; negative means no waiting room).
	QueueDepth int
	// BatchRows and BatchWindow configure the NN micro-batcher's size and
	// deadline triggers (0 means DefaultBatchRows / DefaultBatchWindow).
	BatchRows   int
	BatchWindow time.Duration
	// MaxBodyBytes caps request bodies (0 means 64 MiB).
	MaxBodyBytes int64
	// DefaultDeadline applies to requests that carry no ?deadline_ms (0
	// means 30s).
	DefaultDeadline time.Duration
	// Metrics receives the server's and the pipeline's metrics; nil
	// creates a fresh registry (exposed at /metrics either way).
	Metrics *obs.Registry
}

// Server is the adaptserve HTTP service: localization and classification
// over the parallel pipeline with micro-batched NN inference, bounded
// admission, hot-reloadable models, and Prometheus metrics.
type Server struct {
	cfg      Config
	inst     adapt.Instrument
	metrics  *obs.Registry
	backend  adapt.Backend
	store    *modelStore
	adm      *admission
	mux      *http.ServeMux
	httpSrv  *http.Server
	draining atomic.Bool
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = par.DefaultWorkers()
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 4 * cfg.MaxConcurrent
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.DefaultDeadline <= 0 {
		cfg.DefaultDeadline = 30 * time.Second
	}

	backend, err := adapt.ParseBackend(string(cfg.Backend))
	if err != nil {
		panic("serve: " + err.Error())
	}

	s := &Server{cfg: cfg, metrics: cfg.Metrics, backend: backend}
	if cfg.Instrument != nil {
		s.inst = *cfg.Instrument
	} else {
		s.inst = adapt.DefaultInstrument()
	}
	s.inst.Metrics = s.metrics

	s.store = newModelStore(backend, func(cls adapt.BkgClassifier) *Batcher {
		return NewBatcher(cls, cfg.BatchRows, cfg.BatchWindow, s.metrics)
	}, s.metrics)
	if cfg.Bundle != nil {
		if err := s.store.install(cfg.Bundle, cfg.ModelPath); err != nil {
			panic("serve: " + err.Error())
		}
	}
	s.adm = newAdmission(cfg.MaxConcurrent, cfg.QueueDepth)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/localize", s.handleLocalize)
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/skymap", s.handleSkymap)
	s.mux.HandleFunc("/v1/replay", s.handleReplay)
	s.mux.HandleFunc("/admin/reload", s.handleReload)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/version", s.handleVersion)
	s.httpSrv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// Handler exposes the route table (for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Serve accepts connections on l until Shutdown. A closed-by-Shutdown
// listener is a clean exit (nil error).
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: readiness flips to 503 (load balancers stop
// sending), in-flight requests run to completion (bounded by ctx), and the
// live batcher flushes. It implements the SIGTERM handling contract of
// cmd/adaptserve.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.httpSrv.Shutdown(ctx)
	if b := s.store.current().batcher; b != nil {
		b.Close()
	}
	return err
}

// ---- request plumbing ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// requestCtx applies the request deadline (?deadline_ms, else the
// configured default).
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if v := r.URL.Query().Get("deadline_ms"); v != "" {
		if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 {
			d = time.Duration(ms) * time.Millisecond
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// retryAfterSeconds estimates how soon an overloaded client should retry:
// the queue's current depth times the p50 request latency, spread over the
// compute slots — then jittered uniformly over [0.5, 1.5]× before clamping
// to [1, 30] seconds. The jitter matters at fleet scale: when a router
// sheds a burst across many clients, identical Retry-After values would
// resynchronize every rejected request onto the same second and turn one
// overload into a thundering-herd oscillation.
func (s *Server) retryAfterSeconds() int {
	est := 1.0
	if p50 := s.metrics.Stage("serve_localize").Percentile(0.5); p50 > 0 {
		est = p50.Seconds() * float64(s.adm.queued()) / float64(s.cfg.MaxConcurrent)
	}
	est *= 0.5 + rand.Float64()
	sec := int(math.Ceil(est))
	if sec < 1 {
		sec = 1
	}
	if sec > 30 {
		sec = 30
	}
	return sec
}

// admit runs the admission protocol and maps failures onto HTTP. The
// returned release is nil when the request was refused (and the response
// already written).
func (s *Server) admit(ctx context.Context, w http.ResponseWriter, endpoint string) (release func(), queueWait time.Duration) {
	t0 := time.Now()
	err := s.adm.acquire(ctx)
	queueWait = time.Since(t0)
	s.metrics.ObserveStage("serve_queue_wait", queueWait)
	switch {
	case err == nil:
		// Admitted, but the deadline may have expired while last in line.
		if ctx.Err() != nil {
			s.adm.release()
			s.metrics.Counter("serve_" + endpoint + "_deadline").Inc()
			writeError(w, http.StatusServiceUnavailable, "deadline expired while queued")
			return nil, queueWait
		}
		return s.adm.release, queueWait
	case errors.Is(err, errOverload):
		s.metrics.Counter("serve_" + endpoint + "_rejected").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "admission queue full")
		return nil, queueWait
	default: // context expired or client went away while queued
		s.metrics.Counter("serve_" + endpoint + "_deadline").Inc()
		writeError(w, http.StatusServiceUnavailable, "deadline expired while queued: %v", err)
		return nil, queueWait
	}
}

// setModelHeaders stamps which model generation and inference backend
// produced a response. A fleet front door keys its exact result cache on
// exactly this pair: the body of a deterministic endpoint is a pure
// function of (request bytes, generation, backend).
func (s *Server) setModelHeaders(w http.ResponseWriter, set *modelSet) {
	w.Header().Set(HeaderModelGeneration, strconv.FormatUint(set.gen, 10))
	w.Header().Set(HeaderBackend, string(s.backend))
}

// canonicalRequested reports whether ?canonical=1 asked for a canonical
// response: per-run timing fields (timing_ms, queue_ms) zeroed so the body
// is a pure function of the request and the models. Everything scientific
// is deterministic already; the timing fields are the only noise, and
// zeroing them makes "routed equals direct" and "cache hit equals miss"
// checks exact byte comparisons instead of field-by-field ones.
func canonicalRequested(r *http.Request) bool {
	v := r.URL.Query().Get("canonical")
	return v == "1" || v == "true"
}

// decodeEvents reads the request body as either evio binary or the JSON
// schema, returning the events plus the decoded JSON shell (nil for evio).
func (s *Server) decodeEvents(w http.ResponseWriter, r *http.Request, shell any, events *[]EventJSON) ([]*detector.Event, bool) {
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if strings.Contains(ct, "json") {
		dec := json.NewDecoder(body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(shell); err != nil {
			writeError(w, http.StatusBadRequest, "decode json: %v", err)
			return nil, false
		}
		evs, err := toEvents(*events)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return nil, false
		}
		return evs, true
	}
	evs, err := evio.NewReader(body).ReadAll()
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode evio: %v", err)
		return nil, false
	}
	return evs, true
}

// ---- endpoints ----

func (s *Server) handleLocalize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	stop := s.metrics.StartStage("serve_localize")
	defer stop()
	s.metrics.Counter("serve_localize_requests").Inc()

	var req LocalizeRequest
	events, ok := s.decodeEvents(w, r, &req, &req.Events)
	if !ok {
		s.metrics.Counter("serve_localize_bad_request").Inc()
		return
	}
	if len(events) == 0 {
		s.metrics.Counter("serve_localize_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "no events in request")
		return
	}
	seed := req.Seed
	if v := r.URL.Query().Get("seed"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			seed = n
		}
	}
	if seed == 0 {
		seed = 1 // the adapt.Instrument.Localize default
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, wait := s.admit(ctx, w, "localize")
	if release == nil {
		return
	}
	defer release()

	set := s.store.current()
	res := s.inst.LocalizeEventsWithClassifier(events, set.bundle, set.classifier(), seed)
	s.metrics.Counter("serve_localize_ok").Inc()
	resp := localizeResponse(res, set.bundle != nil, wait.Seconds()*1e3)
	if canonicalRequested(r) {
		resp.TimingMs = TimingMs{}
		resp.QueueMs = 0
	}
	s.setModelHeaders(w, set)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	stop := s.metrics.StartStage("serve_classify")
	defer stop()
	s.metrics.Counter("serve_classify_requests").Inc()

	var req ClassifyRequest
	events, ok := s.decodeEvents(w, r, &req, &req.Events)
	if !ok {
		s.metrics.Counter("serve_classify_bad_request").Inc()
		return
	}
	polar := req.PolarDeg
	if v := r.URL.Query().Get("polar"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			polar = f
		}
	}

	set := s.store.current()
	if set.bundle == nil {
		writeError(w, http.StatusServiceUnavailable, "no models loaded; POST /admin/reload first")
		return
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, wait := s.admit(ctx, w, "classify")
	if release == nil {
		return
	}
	defer release()

	pool := par.NewPool(s.inst.Workers)
	slots := make([]*recon.Ring, len(events))
	pool.ForRange(context.Background(), len(events), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if ring, okr := recon.Reconstruct(&s.inst.Recon, events[i]); okr {
				slots[i] = ring
			}
		}
	})
	rings := make([]*recon.Ring, 0, len(events))
	for _, ring := range slots {
		if ring != nil {
			rings = append(rings, ring)
		}
	}

	resp := &ClassifyResponse{
		Rings:      len(rings),
		PolarDeg:   polar,
		Threshold:  float64(set.bundle.Thr.For(polar)),
		Probs:      []float64{},
		Background: []bool{},
		QueueMs:    wait.Seconds() * 1e3,
	}
	if len(rings) > 0 {
		x := features.MatrixWith(pool, rings, polar, set.bundle.WithPolar)
		set.bundle.BkgNorm.ApplyWith(pool, x)
		probs := set.batcher.Probs(x)
		resp.Probs = make([]float64, len(probs))
		resp.Background = make([]bool, len(probs))
		for i, p := range probs {
			resp.Probs[i] = float64(p)
			resp.Background[i] = p > float32(resp.Threshold)
		}
	}
	if canonicalRequested(r) {
		resp.QueueMs = 0
	}
	s.metrics.Counter("serve_classify_ok").Inc()
	s.setModelHeaders(w, set)
	writeJSON(w, http.StatusOK, resp)
}

// handleSkymap localizes the posted events and returns the downlink-grade
// quantized sky map built from the surviving rings (internal/skymap). The
// whole path — solver, refinement, quantization, encoding — is a pure
// function of (request bytes, model generation, backend), so with
// ?canonical=1 the response is bitwise-deterministic and a fleet front
// door can serve it from its exact result cache.
func (s *Server) handleSkymap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	stop := s.metrics.StartStage("serve_skymap")
	defer stop()
	s.metrics.Counter("serve_skymap_requests").Inc()

	var req SkymapRequest
	events, ok := s.decodeEvents(w, r, &req, &req.Events)
	if !ok {
		s.metrics.Counter("serve_skymap_bad_request").Inc()
		return
	}
	if len(events) == 0 {
		s.metrics.Counter("serve_skymap_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "no events in request")
		return
	}
	q := r.URL.Query()
	seed := req.Seed
	if v := q.Get("seed"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			seed = n
		}
	}
	if seed == 0 {
		seed = 1
	}
	if v := q.Get("temp"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			req.Temperature = f
		}
	}
	if v := q.Get("bands"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			req.CoarseBands = n
		}
	}
	if v := q.Get("refine"); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			req.RefineFactor = n
		}
	}
	switch {
	case req.Temperature < 0:
		s.metrics.Counter("serve_skymap_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "temperature must be positive (0 = default)")
		return
	case req.CoarseBands != 0 && (req.CoarseBands < 2 || req.CoarseBands > skymap.MaxCoarseBands):
		s.metrics.Counter("serve_skymap_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "coarse_bands must be in [2, %d]", skymap.MaxCoarseBands)
		return
	case req.RefineFactor != 0 && (req.RefineFactor < 1 || req.RefineFactor > skymap.MaxRefineFactor):
		s.metrics.Counter("serve_skymap_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "refine_factor must be in [1, %d]", skymap.MaxRefineFactor)
		return
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, wait := s.admit(ctx, w, "skymap")
	if release == nil {
		return
	}
	defer release()

	set := s.store.current()
	res := s.inst.LocalizeEventsWithClassifier(events, set.bundle, set.classifier(), seed)
	resp := &SkymapResponse{
		OK:      res.Loc.OK,
		Rings:   res.Rings,
		Kept:    res.Kept,
		ML:      set.bundle != nil,
		QueueMs: wait.Seconds() * 1e3,
	}
	if res.Loc.OK {
		// The product's background weights come from the run's classifier:
		// the model set's batcher, bounded by the instrument's workers.
		popts := pipeline.Options{Bundle: set.bundle, BkgOverride: set.classifier(), Workers: s.inst.Workers}
		rings, probs := pipeline.ProductRings(popts, &res)
		opts := skymap.Options{
			Temperature:  req.Temperature,
			CoarseBands:  req.CoarseBands,
			RefineFactor: req.RefineFactor,
			Workers:      s.inst.Workers,
		}
		pm := skymap.FromRings(&s.inst.Loc, rings, probs, opts)
		resp.SkyMapB64 = pm.EncodeBase64()
		resp.PayloadBytes = pm.EncodedSize()
		resp.Temperature = float64(pm.Temperature)
		pk := pm.Peak()
		resp.PeakDir = &Vec3{X: pk.X, Y: pk.Y, Z: pk.Z}
		resp.Area68Deg2 = float64(pm.Area68)
		resp.Area90Deg2 = float64(pm.Area90)
	}
	if canonicalRequested(r) {
		resp.QueueMs = 0
	}
	s.metrics.Counter("serve_skymap_ok").Inc()
	s.setModelHeaders(w, set)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req struct {
		Path string `json:"path"`
	}
	if r.Body != nil {
		body := http.MaxBytesReader(w, r.Body, 1<<20)
		// An empty body is fine (use the configured path); malformed JSON
		// is not.
		if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeError(w, http.StatusBadRequest, "decode json: %v", err)
			return
		}
	}
	path := req.Path
	if path == "" {
		path = s.cfg.ModelPath
	}
	if path == "" {
		writeError(w, http.StatusBadRequest, "no model path: pass {\"path\": ...} or start with -models")
		return
	}
	if err := s.store.reload(path); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	set := s.store.current()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":         true,
		"path":       set.path,
		"with_polar": set.bundle.WithPolar,
		"backend":    string(s.backend),
		"loaded_at":  set.loaded.UTC().Format(time.RFC3339Nano),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness as JSON while keeping the 200/503 load
// balancer contract: 200 means "send traffic", 503 means "draining". The
// body carries the live queue shape (in-flight, waiting, limits) and the
// model identity (generation, backend) so a fleet router can weight
// replicas by reported load and key its exact result cache, instead of
// treating readiness as a single bit.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	set := s.store.current()
	queueLimit := s.cfg.QueueDepth
	if queueLimit < 0 { // "no waiting room" reports a zero-size queue
		queueLimit = 0
	}
	resp := ReadyzResponse{
		Ready:           !s.draining.Load(),
		Draining:        s.draining.Load(),
		InFlight:        s.adm.computing(),
		QueueDepth:      s.adm.waiting(),
		MaxConcurrent:   s.cfg.MaxConcurrent,
		QueueLimit:      queueLimit,
		ModelGeneration: set.gen,
		ModelsLoaded:    set.bundle != nil,
		Backend:         string(s.backend),
	}
	status := http.StatusOK
	if resp.Draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	bi := buildinfo.Get()
	fmt.Fprintf(w, "# TYPE adapt_build_info gauge\nadapt_build_info{version=%q,commit=%q,go_version=%q} 1\n",
		bi.Version, bi.Commit, bi.GoVersion)
	ml := 0
	if s.store.current().bundle != nil {
		ml = 1
	}
	fmt.Fprintf(w, "# TYPE adapt_models_loaded gauge\nadapt_models_loaded %d\n", ml)
	s.metrics.WritePrometheus(w, "adapt")
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, versionResponse{Info: buildinfo.Get(), Backend: string(s.backend)})
}

// versionResponse is /version's body: the build identity plus the
// inference backend this process serves with.
type versionResponse struct {
	buildinfo.Info
	Backend string `json:"backend"`
}
