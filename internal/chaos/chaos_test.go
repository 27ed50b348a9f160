package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/obs"
	"repro/internal/stream"
)

// miniFlight is a fast multi-fault scenario for tests: two offset lanes, an
// SAA passage, a backfilled dropout, a backward clock step, and an overload
// window, with one burst inside the faulted region. Rates are far below the
// library's so the full determinism matrix stays quick.
func miniFlight() *Spec {
	return &Spec{
		Name:        "mini-flight",
		DurationSec: 3.5,
		Lanes:       2,
		LaneOffsets: []float64{0, 0.07},
		Background: BackgroundSpec{
			RateHz:       3500,
			ModFraction:  0.2,
			ModPeriodSec: 2,
			SAA:          []SAASpec{{StartSec: 1.0, EndSec: 1.8, RateFactor: 2}},
		},
		Bursts:           []BurstSpec{{TimeSec: 1.5, Fluence: 4, PolarDeg: 25}},
		Dropouts:         []DropoutSpec{{Lane: 1, StartSec: 1.2, EndSec: 2.0, Backfill: true}},
		Drifts:           []DriftSpec{{Lane: 0, StartSec: 2.2, StepSec: -0.03, DriftPerSec: 0.005}},
		Overload:         &OverloadSpec{StartSec: 2.4, EndSec: 3.0, CapacityHz: 1500, BurstEvents: 64},
		FalseAlertBudget: 2,
	}
}

// runOnce prepares and runs a spec from scratch, returning the scorecard
// bytes and the alert-record JSON.
func runOnce(t *testing.T, spec *Spec, seed uint64, workers int) ([]byte, []byte, *Scorecard) {
	t.Helper()
	prep, err := Prepare(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	card, recs, err := prep.Run(Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return card.Encode(), rb, card
}

// TestDeterminismAcrossRunsAndWorkers is the acceptance regression for the
// subsystem: the same (scenario, seed) must produce byte-identical
// scorecards and alert records across fresh Prepare+Run invocations and
// across localization worker counts, with the dropout/rejoin, backfill,
// drift, and overload faults all active — on the mini scenario and on the
// built-in "flight" library scenario.
func TestDeterminismAcrossRunsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	flight, err := Builtin("flight")
	if err != nil {
		t.Fatal(err)
	}
	const seed = 11
	var sc *Scorecard
	for _, spec := range []*Spec{miniFlight(), flight} {
		card1, recs1, card := runOnce(t, spec, seed, 1)
		card2, recs2, _ := runOnce(t, spec, seed, 1)
		card4, recs4, _ := runOnce(t, spec, seed, 4)

		if !bytes.Equal(card1, card2) {
			t.Errorf("%s: scorecard differs between two identical runs:\n%s\nvs\n%s", spec.Name, card1, card2)
		}
		if !bytes.Equal(card1, card4) {
			t.Errorf("%s: scorecard differs between workers 1 and 4:\n%s\nvs\n%s", spec.Name, card1, card4)
		}
		if !bytes.Equal(recs1, recs2) {
			t.Errorf("%s: alert records differ between two identical runs", spec.Name)
		}
		if !bytes.Equal(recs1, recs4) {
			t.Errorf("%s: alert records differ between workers 1 and 4", spec.Name)
		}
		if sc == nil {
			sc = card
		}
	}

	// The mini run doubles as the fault-primitive functional check: every
	// configured fault must actually have bitten.
	if sc.BackfillEvents == 0 {
		t.Error("backfilled dropout recovered no events")
	}
	if sc.MergeLateDropped == 0 {
		t.Error("backward clock step produced no merge late drops")
	}
	if sc.OverloadShed == 0 {
		t.Error("overload window shed no events")
	}
	if sc.EventsGenerated == 0 {
		t.Error("no events generated")
	}
	if sc.BurstsDetected != 1 {
		t.Errorf("burst during dropout+SAA not detected (detected %d of %d)",
			sc.BurstsDetected, sc.BurstsInjected)
	}
	for _, b := range sc.Bursts {
		if b.Detected && b.LatencySec <= 0 {
			t.Errorf("detected burst has non-positive latency %g", b.LatencySec)
		}
	}
}

// TestDeterminismDifferentSeedsDiffer guards against the scorer accidentally
// ignoring the exposure: different seeds must not produce identical event
// accounting.
func TestDeterminismDifferentSeedsDiffer(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	spec := &Spec{
		Name:        "tiny",
		DurationSec: 1.5,
		Background:  BackgroundSpec{RateHz: 3000},
	}
	_, _, a := runOnce(t, spec, 1, 1)
	_, _, b := runOnce(t, spec, 2, 1)
	if a.EventsGenerated == b.EventsGenerated {
		t.Errorf("seeds 1 and 2 generated identical event counts (%d); RNG not wired through",
			a.EventsGenerated)
	}
}

// TestCleanDetection checks the happy path: a clean single-burst scenario
// detects its burst, localizes it, stays within budget, and scores a
// positive objective.
func TestCleanDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	spec := &Spec{
		Name:             "clean",
		DurationSec:      2.5,
		Background:       BackgroundSpec{RateHz: 3500},
		Bursts:           []BurstSpec{{TimeSec: 1.2, Fluence: 4, PolarDeg: 20}},
		FalseAlertBudget: 1,
	}
	_, recs, sc := runOnce(t, spec, 5, 2)
	if sc.BurstsDetected != 1 {
		t.Fatalf("clean burst not detected: %+v", sc)
	}
	if sc.DetectionEfficiency != 1 {
		t.Errorf("efficiency = %g, want 1", sc.DetectionEfficiency)
	}
	if !sc.WithinBudget {
		t.Errorf("clean scenario blew the false-alert budget: %d > %d", sc.FalseAlerts, sc.FalseAlertBudget)
	}
	if sc.Objective <= 0 {
		t.Errorf("objective = %g, want positive", sc.Objective)
	}
	if sc.Localized == 0 {
		t.Error("detected burst was not localized")
	}
	if sc.LatencyP50Sec <= 0 || sc.LatencyMaxSec < sc.LatencyP50Sec {
		t.Errorf("latency percentiles inconsistent: p50=%g max=%g", sc.LatencyP50Sec, sc.LatencyMaxSec)
	}
	var out []stream.Record
	if err := json.Unmarshal(recs, &out); err != nil {
		t.Fatalf("records not valid JSON: %v", err)
	}
	if len(out) != sc.Alerts {
		t.Errorf("record count %d != scorecard alerts %d", len(out), sc.Alerts)
	}
}

// TestDropoutWithoutBackfillLosesEvents checks the lossy dropout primitive
// and its phase attribution.
func TestDropoutWithoutBackfillLosesEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	spec := &Spec{
		Name:        "lossy-dropout",
		DurationSec: 2,
		Lanes:       2,
		Background:  BackgroundSpec{RateHz: 3000},
		Dropouts:    []DropoutSpec{{Lane: 0, StartSec: 0.5, EndSec: 1.5}},
	}
	_, _, sc := runOnce(t, spec, 3, 1)
	if sc.DropoutLost == 0 {
		t.Error("dropout lost no events")
	}
	if sc.BackfillEvents != 0 {
		t.Error("non-backfill dropout produced backfill events")
	}
	found := false
	for _, ph := range sc.Phases {
		if ph.Name == "dropout0" {
			found = true
		}
	}
	if !found {
		t.Errorf("no dropout0 phase in scorecard: %+v", sc.Phases)
	}
}

// TestMetricsPublished checks the obs wiring: a run with a registry must
// surface the chaos counters and the per-phase attribution.
func TestMetricsPublished(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	spec := miniFlight()
	prep, err := Prepare(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	card, _, err := prep.Run(Options{Workers: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(CtrGenerated).Load(); got != int64(card.EventsGenerated) {
		t.Errorf("%s = %d, scorecard says %d", CtrGenerated, got, card.EventsGenerated)
	}
	if got := reg.Counter(CtrShed).Load(); got != card.OverloadShed {
		t.Errorf("%s = %d, scorecard says %d", CtrShed, got, card.OverloadShed)
	}
	if got := reg.Counter(PhaseMetric("overload", "shed")).Load(); got == 0 {
		t.Error("per-phase overload shed counter is zero")
	}
	// The stream's own shed counter must agree with the chaos attribution.
	if got := reg.Counter(stream.CtrShed).Load(); got != card.OverloadShed {
		t.Errorf("stream %s = %d, scorecard says %d", stream.CtrShed, got, card.OverloadShed)
	}
}

// TestPreparedRunTriggerReuse checks the tuner's contract: one Prepare, many
// trigger candidates, with an absurdly deaf candidate detecting nothing and
// the default detecting the burst.
func TestPreparedRunTriggerReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline run")
	}
	spec := &Spec{
		Name:             "reuse",
		DurationSec:      2.5,
		Background:       BackgroundSpec{RateHz: 3500},
		Bursts:           []BurstSpec{{TimeSec: 1.2, Fluence: 4, PolarDeg: 20}},
		FalseAlertBudget: 1,
	}
	prep, err := Prepare(spec, 5)
	if err != nil {
		t.Fatal(err)
	}
	def, _, err := prep.Run(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A 10 s window at 100σ is deaf to this burst: the burst's ~18k events
	// against a 10 s expectation of ~20k background events is only ~12σ.
	deaf, _, err := prep.RunTrigger(TriggerSpec{WindowSec: 10, SigmaThreshold: 100}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if def.BurstsDetected != 1 {
		t.Errorf("default trigger missed the burst: %+v", def)
	}
	if deaf.BurstsDetected != 0 || deaf.Alerts != 0 {
		t.Errorf("deaf trigger still alerted: %+v", deaf)
	}
	if deaf.Objective >= def.Objective {
		t.Errorf("deaf objective %g not below default %g", deaf.Objective, def.Objective)
	}
}

// TestLibraryScenariosValidate checks every built-in spec is valid, named,
// survives an encode/parse round trip, and is reachable through Builtin.
func TestLibraryScenariosValidate(t *testing.T) {
	lib := Library()
	if len(lib) == 0 {
		t.Fatal("empty scenario library")
	}
	seen := map[string]bool{}
	for _, s := range lib {
		if err := s.Validate(); err != nil {
			t.Errorf("library scenario %q invalid: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate library scenario name %q", s.Name)
		}
		seen[s.Name] = true
		rt, err := ParseSpec(s.Encode())
		if err != nil {
			t.Errorf("scenario %q does not round-trip: %v", s.Name, err)
			continue
		}
		if rt.Name != s.Name {
			t.Errorf("round trip renamed %q to %q", s.Name, rt.Name)
		}
		got, err := Builtin(s.Name)
		if err != nil || got.Name != s.Name {
			t.Errorf("Builtin(%q) = %v, %v", s.Name, got, err)
		}
	}
	if _, err := Builtin("no-such-scenario"); err == nil {
		t.Error("Builtin accepted an unknown name")
	}
}

// TestOverloadGate unit-tests the token bucket on a synthetic time series.
func TestOverloadGate(t *testing.T) {
	o := &OverloadSpec{StartSec: 1, EndSec: 2, CapacityHz: 10, BurstEvents: 2}
	gate := o.gate()
	if !gate(0.5) {
		t.Error("gate closed outside the window")
	}
	// Inside the window: 2 tokens of headroom, then refill at 10/s.
	if !gate(1.0) || !gate(1.0) {
		t.Error("burst headroom not honored")
	}
	if gate(1.0) {
		t.Error("admitted beyond burst headroom with no time advance")
	}
	if !gate(1.2) { // 0.2 s × 10 Hz = 2 tokens refilled
		t.Error("refill not honored")
	}
	if !gate(2.0) {
		t.Error("gate closed after the window")
	}
}
