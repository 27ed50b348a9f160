package serve

import (
	"io"
	"net/http"
	"strconv"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/stream"
)

// ContentTypeFlightLog is the body framing of POST /v1/replay: the raw
// concatenation of a flight journal's segment files, exactly what
// `cat journal-*.flog` produces on the ground after a downlink.
const ContentTypeFlightLog = "application/x-adapt-flightlog"

// handleReplay implements POST /v1/replay: run the streaming trigger over
// a recorded flight journal and return the alert records the flight did
// (or should have) produced. The body is the concatenated segment files of
// one journal; a torn tail from a mid-append crash is tolerated and
// reported in the response, never silently dropped. Localization windows
// run through the same pipeline as /v1/localize — including the shared NN
// micro-batcher — so a replay benefits from cross-request batching, and
// because the batcher evaluates the same network row-independently, its
// alerts are bitwise-identical to an onboard run with the same models.
//
// Query parameters:
//
//	seed        solver seed (default 1)
//	bkg_rate    calibrated quiet-sky rate in events/s (default: the
//	            journal's own mean rate, which is deterministic from the
//	            body)
//	sigma       trigger threshold in Poisson sigma (default 8)
//	window      trigger sliding-window seconds (default 0.1)
func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	stop := s.metrics.StartStage("serve_replay")
	defer stop()
	s.metrics.Counter("serve_replay_requests").Inc()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.metrics.Counter("serve_replay_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var events []*detector.Event
	st, err := flightlog.ScanStream(body, func(payload []byte) error {
		evs, err := evio.Unmarshal(payload)
		if err != nil {
			return err
		}
		events = append(events, evs...)
		return nil
	})
	if err != nil {
		s.metrics.Counter("serve_replay_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "parse journal: %v", err)
		return
	}
	if len(events) == 0 {
		s.metrics.Counter("serve_replay_bad_request").Inc()
		writeError(w, http.StatusBadRequest, "journal holds no events")
		return
	}

	q := r.URL.Query()
	seed := uint64(1)
	if v := q.Get("seed"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil && n > 0 {
			seed = n
		}
	}
	rate := 0.0
	if v := q.Get("bkg_rate"); v != "" {
		rate, _ = strconv.ParseFloat(v, 64)
	}
	if rate <= 0 {
		// The journal's own mean rate: deterministic from the body, and a
		// reasonable quiet-sky estimate when bursts are a small fraction of
		// the exposure.
		span := events[len(events)-1].ArrivalTime - events[0].ArrivalTime
		if span <= 0 {
			span = 1
		}
		rate = float64(len(events)) / span
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	release, wait := s.admit(ctx, w, "replay")
	if release == nil {
		return
	}
	defer release()

	set := s.store.current()
	cfg := stream.DefaultConfig(rate)
	cfg.Recon = s.inst.Recon
	cfg.Loc = s.inst.Loc
	cfg.MaxNNIters = s.inst.MaxNNIters
	cfg.Workers = s.inst.Workers
	cfg.Bundle = set.bundle
	cfg.BkgOverride = set.classifier()
	cfg.Seed = seed
	if v := q.Get("sigma"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			cfg.SigmaThreshold = f
		}
	}
	if v := q.Get("window"); v != "" {
		if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
			cfg.WindowSec = f
		}
	}
	alerts := make([]stream.Record, 0, 4)
	for _, a := range stream.Run(cfg, events) {
		alerts = append(alerts, a.Record())
	}

	s.metrics.Counter("serve_replay_ok").Inc()
	resp := &ReplayResponse{
		Events:         len(events),
		Records:        st.Records,
		TruncatedBytes: st.TruncatedBytes,
		BkgRateHz:      rate,
		ML:             set.bundle != nil,
		Alerts:         alerts,
		QueueMs:        wait.Seconds() * 1e3,
	}
	if canonicalRequested(r) {
		resp.QueueMs = 0
	}
	s.setModelHeaders(w, set)
	writeJSON(w, http.StatusOK, resp)
}
