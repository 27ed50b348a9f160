package campaign

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/xrand"
)

func TestPopulationSample(t *testing.T) {
	p := DefaultPopulation()
	rng := xrand.New(1)
	brighterThan1 := 0
	n := 20000
	for i := 0; i < n; i++ {
		b := p.Sample(rng)
		if b.Fluence < p.FluenceMin || b.Fluence > p.FluenceMax {
			t.Fatalf("fluence %v out of range", b.Fluence)
		}
		if b.PolarDeg < 0 || b.PolarDeg > p.MaxPolarDeg+1e-9 {
			t.Fatalf("polar %v out of range", b.PolarDeg)
		}
		if b.Fluence > 1 {
			brighterThan1++
		}
	}
	// Euclidean log N–log S: P(S > 1) = (1^-1.5 − max^-1.5)/(min^-1.5 − max^-1.5).
	mn := math.Pow(p.FluenceMin, -p.Slope)
	mx := math.Pow(p.FluenceMax, -p.Slope)
	want := (1 - mx) / (mn - mx)
	got := float64(brighterThan1) / float64(n)
	if math.Abs(got-want) > 0.02 {
		t.Errorf("P(S>1) = %v, want %v", got, want)
	}
}

func TestCampaignRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultConfig(3)
	cfg.Bursts = 12
	cfg.QuietSecondsPerBurst = 1
	var buf bytes.Buffer
	res := Run(cfg, &buf)

	if len(res.Outcomes) != cfg.Bursts {
		t.Fatalf("%d outcomes, want %d", len(res.Outcomes), cfg.Bursts)
	}
	// Bright bursts must be detected and localized.
	for _, o := range res.Outcomes {
		if o.Burst.Fluence >= 2 {
			if !o.Detected {
				t.Errorf("bright burst (%.2f MeV/cm²) missed", o.Burst.Fluence)
			} else if o.Localized && o.ErrorDeg > 20 {
				t.Errorf("bright burst localized to %v°", o.ErrorDeg)
			}
		}
	}
	// The trigger must not fire on quiet stretches.
	if res.FalseAlerts > 1 {
		t.Errorf("%d false alerts over %v quiet seconds", res.FalseAlerts, res.QuietSeconds)
	}
	if !strings.Contains(buf.String(), "fluence band") {
		t.Error("report table missing")
	}
	if s := res.SensitivityFluence(); math.IsNaN(s) || s < cfg.Population.FluenceMin || s > cfg.Population.FluenceMax {
		t.Errorf("sensitivity estimate %v out of range", s)
	}
}

// TestCampaignScoresFirstAlert: a burst bright enough to re-alert inside
// its own window is scored by its first alert. Later in-window alerts
// neither replace the outcome nor count as false alerts.
func TestCampaignScoresFirstAlert(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := DefaultConfig(5)
	cfg.Bursts = 4
	cfg.Population.FluenceMin, cfg.Population.FluenceMax = 7.5, 8
	res := Run(cfg, nil)
	for i, o := range res.Outcomes {
		if !o.Localized || o.ErrorDeg >= 5 {
			t.Errorf("burst %d (%.2f MeV/cm²): localized %v, error %.2f°", i, o.Burst.Fluence, o.Localized, o.ErrorDeg)
		}
	}
	if res.FalseAlerts != 0 {
		t.Errorf("%d false alerts", res.FalseAlerts)
	}
}

// TestCampaignJournalRecords runs a tiny campaign with a flight journal
// attached and checks that every trial's exposure was archived as one
// decodable evio blob.
func TestCampaignJournalRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	j, err := flightlog.Open(flightlog.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(5)
	cfg.Bursts = 4
	cfg.QuietSecondsPerBurst = 1
	cfg.Journal = j
	Run(cfg, nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	trials := 0
	err = flightlog.Replay(j.Dir(), func(payload []byte) error {
		events, err := evio.Unmarshal(payload)
		if err != nil {
			return err
		}
		if len(events) == 0 {
			t.Error("journaled trial holds no events")
		}
		for i := 1; i < len(events); i++ {
			if events[i].ArrivalTime < events[i-1].ArrivalTime {
				t.Fatal("journaled trial not sorted by arrival time")
			}
		}
		trials++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if trials != cfg.Bursts {
		t.Fatalf("journal holds %d trials, want %d", trials, cfg.Bursts)
	}
}

func TestResultAccessors(t *testing.T) {
	r := &Result{Outcomes: []BurstOutcome{
		{Burst: burst(0.3), Detected: false},
		{Burst: burst(0.3), Detected: true, Localized: true, ErrorDeg: 5},
		{Burst: burst(3.0), Detected: true, Localized: true, ErrorDeg: 1},
	}}
	eff, n := r.DetectionEfficiency(0.25, 0.5)
	if n != 2 || eff != 0.5 {
		t.Errorf("efficiency %v over %d", eff, n)
	}
	errs := r.LocalizationErrors(0.25, 0.5)
	if len(errs) != 1 || errs[0] != 5 {
		t.Errorf("errors %v", errs)
	}
	if _, n := r.DetectionEfficiency(10, 20); n != 0 {
		t.Error("empty band not empty")
	}
}

func TestSensitivityMonotone(t *testing.T) {
	// All-detected population → sensitivity at the dimmest burst.
	r := &Result{Outcomes: []BurstOutcome{
		{Burst: burst(0.5), Detected: true},
		{Burst: burst(1), Detected: true},
		{Burst: burst(2), Detected: true},
	}}
	if got := r.SensitivityFluence(); got != 0.5 {
		t.Errorf("all-detected sensitivity %v, want 0.5", got)
	}
	// Dim bursts missed → threshold above them.
	r = &Result{Outcomes: []BurstOutcome{
		{Burst: burst(0.5), Detected: false},
		{Burst: burst(1), Detected: true},
		{Burst: burst(2), Detected: true},
	}}
	if got := r.SensitivityFluence(); got != 1 {
		t.Errorf("sensitivity %v, want 1", got)
	}
}

func burst(f float64) detector.Burst { return detector.Burst{Fluence: f} }

func TestPopulationValidate(t *testing.T) {
	if err := DefaultPopulation().Validate(); err != nil {
		t.Fatalf("default population invalid: %v", err)
	}
	bad := []Population{
		{FluenceMin: 0, FluenceMax: 8, Slope: 1.5, MaxPolarDeg: 80},
		{FluenceMin: 2, FluenceMax: 1, Slope: 1.5, MaxPolarDeg: 80},
		{FluenceMin: 0.25, FluenceMax: 8, Slope: 0, MaxPolarDeg: 80},
		{FluenceMin: 0.25, FluenceMax: 8, Slope: 1.5, MaxPolarDeg: 120},
		{FluenceMin: math.Inf(1), FluenceMax: math.Inf(1), Slope: 1.5, MaxPolarDeg: 80},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("population %d validated but should not: %+v", i, p)
		}
	}
}
