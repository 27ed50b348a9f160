// Package campaign simulates observation campaigns: a population of
// gamma-ray bursts with a realistic brightness distribution arriving over a
// long exposure, processed by the on-board detection + localization system.
// It measures the mission-level quantities the paper's introduction argues
// for (§I: prompt detection, accurate localization, order-of-magnitude
// sensitivity improvements for the future APT): trigger efficiency and
// localization accuracy as functions of fluence.
package campaign

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/geom"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Population describes the burst brightness distribution: a power law in
// fluence, N(>S) ∝ S^(−Slope), the standard log N–log S form (Slope = 3/2
// for a homogeneous Euclidean source population).
type Population struct {
	// FluenceMin and FluenceMax bound the sampled fluences (MeV/cm²).
	FluenceMin, FluenceMax float64
	// Slope is the cumulative-distribution slope (3/2 Euclidean).
	Slope float64
	// MaxPolarDeg bounds source polar angles (Earth blocks the rest).
	MaxPolarDeg float64
}

// DefaultPopulation returns a Euclidean population spanning the dim-to-
// bright range of the paper's evaluation.
func DefaultPopulation() Population {
	return Population{FluenceMin: 0.25, FluenceMax: 8, Slope: 1.5, MaxPolarDeg: 80}
}

// Validate reports whether the population is a usable sampling
// distribution. Campaign configs built in Go are normally correct by
// construction; chaos scenario specs, which arrive as untrusted JSON,
// validate their random-burst populations through this before sampling.
func (p Population) Validate() error {
	switch {
	case !(p.FluenceMin > 0) || math.IsInf(p.FluenceMin, 0):
		return fmt.Errorf("campaign: FluenceMin must be positive and finite, got %g", p.FluenceMin)
	case !(p.FluenceMax > p.FluenceMin) || math.IsInf(p.FluenceMax, 0):
		return fmt.Errorf("campaign: FluenceMax must exceed FluenceMin, got %g <= %g", p.FluenceMax, p.FluenceMin)
	case !(p.Slope > 0) || math.IsInf(p.Slope, 0):
		return fmt.Errorf("campaign: Slope must be positive and finite, got %g", p.Slope)
	case !(p.MaxPolarDeg > 0) || p.MaxPolarDeg > 90:
		return fmt.Errorf("campaign: MaxPolarDeg must be in (0, 90], got %g", p.MaxPolarDeg)
	}
	return nil
}

// Sample draws one burst from the population.
func (p Population) Sample(rng *xrand.RNG) detector.Burst {
	// N(>S) ∝ S^−a ⇒ pdf ∝ S^−(a+1); sample via the power-law helper with
	// index −(a+1).
	fluence := rng.PowerLaw(-(p.Slope + 1), p.FluenceMin, p.FluenceMax)
	x, y, z := rng.UnitVectorPolarRange(0, geom.Rad(p.MaxPolarDeg))
	dir := geom.Vec{X: x, Y: y, Z: z}
	return detector.Burst{
		Fluence:    fluence,
		PolarDeg:   geom.Deg(geom.Polar(dir)),
		AzimuthDeg: geom.Deg(geom.Azimuth(dir)),
	}
}

// Config drives a campaign run.
type Config struct {
	Seed uint64
	// Bursts is how many bursts to inject (each in its own quiet stretch).
	Bursts int
	// QuietSecondsPerBurst is the background-only padding around each
	// burst, which the trigger must not fire on.
	QuietSecondsPerBurst float64
	// Population of burst brightnesses and directions.
	Population Population
	// Bundle supplies the networks (nil = no-ML pipeline).
	Bundle *models.Bundle
	// Backend selects the background-classifier inference implementation
	// for every trial's pipeline ("" = float32).
	Backend pipeline.Backend
	// Workers caps the per-trial fan-out: each burst's quiet window is an
	// independent simulation + detection + localization, so trials shard
	// across the pool. 0 means the process default, 1 serial. Outcomes are
	// identical for any value (fixed per-trial RNG substreams, reduced in
	// trial order). When trials fan out, the pipeline inside each trial
	// runs serially so the two levels don't multiply.
	Workers int
	// Metrics, when non-nil, receives the per-trial latency histogram
	// ("trial") and the pipeline stage metrics of every processed burst.
	Metrics *obs.Registry
	// Journal, when non-nil, records each trial's simulated exposure as one
	// evio blob — an archival flight journal of the whole campaign. Trials
	// complete in pool order, so record order varies run to run; each
	// record is internally sorted by arrival time.
	Journal *flightlog.Journal
}

// DefaultConfig returns a laptop-scale campaign.
func DefaultConfig(seed uint64) Config {
	return Config{
		Seed:                 seed,
		Bursts:               30,
		QuietSecondsPerBurst: 2,
		Population:           DefaultPopulation(),
	}
}

// BurstOutcome records one injected burst's fate.
type BurstOutcome struct {
	Burst     detector.Burst
	Detected  bool
	ErrorDeg  float64 // valid when Detected and localization succeeded
	Localized bool
	// EstimateDeg is the system's self-reported 1σ radius.
	EstimateDeg float64
}

// Result summarizes a campaign.
type Result struct {
	Outcomes []BurstOutcome
	// FalseAlerts counts triggers with no injected burst within the window.
	FalseAlerts int
	// QuietSeconds is the total burst-free exposure scanned.
	QuietSeconds float64
}

// DetectionEfficiency returns the detected fraction of bursts with fluence
// in [lo, hi).
func (r *Result) DetectionEfficiency(lo, hi float64) (eff float64, n int) {
	det := 0
	for _, o := range r.Outcomes {
		if o.Burst.Fluence < lo || o.Burst.Fluence >= hi {
			continue
		}
		n++
		if o.Detected {
			det++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(det) / float64(n), n
}

// LocalizationErrors returns the errors of localized bursts in a fluence
// band.
func (r *Result) LocalizationErrors(lo, hi float64) []float64 {
	var out []float64
	for _, o := range r.Outcomes {
		if o.Localized && o.Burst.Fluence >= lo && o.Burst.Fluence < hi {
			out = append(out, o.ErrorDeg)
		}
	}
	return out
}

// Run simulates the campaign: each burst is embedded in its own quiet
// window and handed to the on-board system; detection means the trigger
// fired within the burst's true window.
func Run(cfg Config, w io.Writer) *Result {
	res, _ := RunContext(context.Background(), cfg, w)
	return res
}

// RunContext is Run with trial fan-out under a cancellable context.
// Cancellation stops scheduling new trials and returns the context error
// alongside the (partial, undercounted) result.
func RunContext(ctx context.Context, cfg Config, w io.Writer) (*Result, error) {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	root := xrand.New(cfg.Seed)

	// Calibrate the quiet rate once, as the flight software would.
	calRNG := root.Split(0xCA1)
	meanRate := float64(len(bg.Simulate(&det, 1.0, calRNG)))

	// Split the per-trial RNG substreams up front, serially: Split reads
	// the root generator's state, and the trial loop below runs on the
	// worker pool.
	rngs := make([]*xrand.RNG, cfg.Bursts)
	for i := range rngs {
		rngs[i] = root.Split(uint64(i) + 1)
	}

	pool := par.NewPool(cfg.Workers)
	// When trials shard across workers, each trial's pipeline runs
	// serially — the trial level already saturates the pool, and nesting
	// would oversubscribe the machine.
	innerWorkers := 0
	if pool.Workers() > 1 {
		innerWorkers = 1
	}

	type trial struct {
		outcome     BurstOutcome
		falseAlerts int
	}
	trials := make([]trial, cfg.Bursts)
	err := pool.ForEach(ctx, cfg.Bursts, func(i int) {
		stop := cfg.Metrics.StartStage("trial")
		defer stop()
		rng := rngs[i]
		burst := cfg.Population.Sample(rng)

		exposure := cfg.QuietSecondsPerBurst + 1.0
		events := bg.Simulate(&det, exposure, rng)
		t0 := cfg.QuietSecondsPerBurst / 2
		for _, ev := range detector.SimulateBurst(&det, burst, rng) {
			ev.ArrivalTime += t0
			events = append(events, ev)
		}

		sort.Slice(events, func(a, b int) bool { return events[a].ArrivalTime < events[b].ArrivalTime })
		if cfg.Journal != nil {
			if blob, jerr := evio.Marshal(events); jerr == nil {
				if jerr = cfg.Journal.Append(blob); jerr != nil {
					cfg.Metrics.Counter("campaign_journal_errors").Inc()
				}
			} else {
				cfg.Metrics.Counter("campaign_journal_errors").Inc()
			}
		}

		scfg := stream.DefaultConfig(meanRate)
		scfg.Bundle = cfg.Bundle
		scfg.Backend = cfg.Backend
		scfg.Workers = innerWorkers
		scfg.Metrics = cfg.Metrics
		scfg.Seed = rng.Uint64()
		alerts := stream.Run(scfg, events)

		// A burst is scored by its first alert inside its window; later
		// in-window alerts (a bright burst's re-alert) are neither a new
		// outcome nor false alerts.
		trials[i].outcome = BurstOutcome{Burst: burst}
		for _, a := range alerts {
			if a.TriggerTime < t0-0.3 || a.TriggerTime > t0+1.0 {
				trials[i].falseAlerts++
				continue
			}
			if trials[i].outcome.Detected {
				continue
			}
			trials[i].outcome.Detected = true
			if a.Result.Loc.OK {
				trials[i].outcome.Localized = true
				trials[i].outcome.ErrorDeg = a.Result.Loc.ErrorDeg(burst.SourceDirection())
				trials[i].outcome.EstimateDeg = a.Result.ErrorRadiusDeg
			}
		}
	})

	// Reduce in trial order: the aggregate is identical to the serial
	// loop's regardless of how trials interleaved on the pool.
	res := &Result{}
	for i := range trials {
		res.QuietSeconds += cfg.QuietSecondsPerBurst
		res.FalseAlerts += trials[i].falseAlerts
		res.Outcomes = append(res.Outcomes, trials[i].outcome)
	}

	if w != nil && err == nil {
		res.Report(w)
	}
	return res, err
}

// Report prints the campaign summary: efficiency and accuracy per fluence
// band, plus the false-alert rate.
func (r *Result) Report(w io.Writer) {
	bands := [][2]float64{{0.25, 0.5}, {0.5, 1}, {1, 2}, {2, 8}}
	fmt.Fprintf(w, "campaign: %d bursts, %.0f s quiet exposure, %d false alerts\n",
		len(r.Outcomes), r.QuietSeconds, r.FalseAlerts)
	fmt.Fprintf(w, "  %-14s %-8s %-10s %-14s\n", "fluence band", "n", "detected", "68% err (deg)")
	for _, b := range bands {
		eff, n := r.DetectionEfficiency(b[0], b[1])
		errs := r.LocalizationErrors(b[0], b[1])
		errStr := "—"
		if len(errs) > 0 {
			errStr = fmt.Sprintf("%.2f", stats.Containment(errs, 0.68))
		}
		fmt.Fprintf(w, "  %5.2f–%-7.2f %-8d %-10.2f %-14s\n", b[0], b[1], n, eff, errStr)
	}
}

// SensitivityFluence estimates the 50%-efficiency detection threshold by
// scanning the outcomes with a simple sliding logistic fit surrogate: the
// fluence at which the running detection fraction first stays ≥ 0.5.
func (r *Result) SensitivityFluence() float64 {
	// Sort outcomes by fluence and find the dimmest band where the
	// detected fraction of bursts at or above that fluence is ≥ 0.9.
	type fo struct {
		f   float64
		det bool
	}
	var xs []fo
	for _, o := range r.Outcomes {
		xs = append(xs, fo{o.Burst.Fluence, o.Detected})
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	// Insertion sort (n is small).
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j].f < xs[j-1].f; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	for i := range xs {
		det, n := 0, 0
		for _, x := range xs[i:] {
			n++
			if x.det {
				det++
			}
		}
		if float64(det)/float64(n) >= 0.9 {
			return xs[i].f
		}
	}
	return xs[len(xs)-1].f
}
