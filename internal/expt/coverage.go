package expt

import (
	"fmt"
	"io"

	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/models"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

// CoverageResult reports one arm × level of the credible-region
// calibration study.
type CoverageResult struct {
	Arm string
	// Backend is the inference backend of the ML arms ("" for no-ML).
	Backend pipeline.Backend
	// Temperature is the payload's tempering divisor.
	Temperature  float64
	Level        float64 // nominal credible level
	Covered      int     // trials whose region contained the truth
	Trials       int
	MeanAreaDeg2 float64
}

// Fraction returns the empirical coverage.
func (c CoverageResult) Fraction() float64 {
	if c.Trials == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Trials)
}

// coverageTemperatures is the grid scanned for the empirical systematic
// inflation (posterior tempering) of the fitted arm.
var coverageTemperatures = []float64{1, 2, 4, 8, 16, 32}

// productRings are the inputs of one trial's sky-map payload.
type productRings struct {
	rings []*recon.Ring
	probs []float64
}

// coverageTrial is one localized burst: its true direction and the
// payload inputs of the no-ML pipeline and of each backend's ML pipeline.
type coverageTrial struct {
	truth geom.Vec
	noML  productRings
	ml    []productRings // indexed like pipeline.Backends
}

// CoverageStudy validates the system's *self-reported* localization
// uncertainty: over many bursts, the p-credible region of the downlinked
// sky map should contain the true direction in ≈ p of trials. A flight
// system whose regions undercover wastes follow-up telescope time.
//
// Every map is the payload an alert carries — pipeline.ProductRings, then
// skymap.FromRings — scored with the payload's own Contains and
// CredibleAreaDeg2. The arms:
//
//  1. "no-ML" at T=1: the robust likelihood over all rings with analytic
//     dη — overconfident, the paper's "false certainty" failure mode seen
//     as a coverage deficit.
//  2. "ML mixture" at T=1: background-filter survivors,
//     dEta-network-calibrated widths, classifier-weighted mixture
//     likelihood. Statistical widths cannot absorb the estimator's
//     systematic error.
//  3. "ML flown": arm 2 at skymap.DefaultTemperature, the map every alert
//     carries.
//  4. "ML fitted": arm 2 tempered by the smallest T whose 90% coverage
//     reaches 0.90 on a calibration half of the trials, scored on the
//     other half — the standard mission practice (cf. Fermi-GBM's
//     empirically fitted systematic localization error).
//
// The ML arms run once per backend on the quantized bundle Fig. 11 uses,
// each trial's runs starting from the same RNG state, so the backends'
// rows differ only in the backend.
//
// This calibration view is an addition of this reproduction; the paper
// evaluates only ground-truth containment.
func CoverageStudy(w io.Writer, sc Scale) []CoverageResult {
	e := newEnv()
	lc := localize.DefaultConfig()
	levels := []float64{0.68, 0.90} // the temperature fit targets 0.90
	int8net, swapped := Int8Background(sc)
	bundle := *swapped
	bundle.Int8 = int8net

	var all []coverageTrial
	root := xrand.New(0xC0F)
	trials := sc.Trials * sc.MetaTrials
trial:
	for i := 0; i < trials; i++ {
		rng := root.Split(uint64(i) + 1)
		burst := detector.Burst{
			Fluence:    1.0,
			PolarDeg:   rng.Uniform(0, 70),
			AzimuthDeg: rng.Uniform(0, 360),
		}
		events := detector.SimulateBurst(&e.det, burst, rng)
		events = append(events, e.bg.Simulate(&e.det, 1.0, rng)...)
		start := *rng
		run := func(b *models.Bundle, backend pipeline.Backend) (productRings, bool) {
			opts := pipeline.DefaultOptions()
			opts.Bundle = b
			opts.Backend = backend
			r := start
			res := pipeline.Run(opts, events, &r)
			rings, probs := pipeline.ProductRings(opts, &res)
			return productRings{rings, probs}, res.Loc.OK
		}
		tr := coverageTrial{truth: burst.SourceDirection()}
		var ok bool
		if tr.noML, ok = run(nil, ""); !ok {
			continue
		}
		for _, backend := range pipeline.Backends {
			p, ok := run(&bundle, backend)
			if !ok {
				continue trial
			}
			tr.ml = append(tr.ml, p)
		}
		all = append(all, tr)
	}

	// score builds each trial's payload from pick at temperature t and
	// tallies one row per level.
	score := func(arm string, backend pipeline.Backend, t float64, set []coverageTrial, pick func(*coverageTrial) productRings) []CoverageResult {
		rows := make([]CoverageResult, len(levels))
		for i, p := range levels {
			rows[i] = CoverageResult{Arm: arm, Backend: backend, Temperature: t, Level: p}
		}
		for k := range set {
			in := pick(&set[k])
			m := skymap.FromRings(&lc, in.rings, in.probs, skymap.Options{Temperature: t})
			for i := range rows {
				rows[i].Trials++
				if m.Contains(set[k].truth, rows[i].Level) {
					rows[i].Covered++
				}
				rows[i].MeanAreaDeg2 += m.CredibleAreaDeg2(rows[i].Level)
			}
		}
		for i := range rows {
			if rows[i].Trials > 0 {
				rows[i].MeanAreaDeg2 /= float64(rows[i].Trials)
			}
		}
		return rows
	}

	results := score("no-ML", "", 1, all, func(tr *coverageTrial) productRings { return tr.noML })
	half := len(all) / 2
	for b, backend := range pipeline.Backends {
		ml := func(tr *coverageTrial) productRings { return tr.ml[b] }
		results = append(results, score("ML mixture", backend, 1, all, ml)...)
		results = append(results, score("ML flown", backend, skymap.DefaultTemperature, all, ml)...)
		fitted := coverageTemperatures[len(coverageTemperatures)-1]
		for _, t := range coverageTemperatures {
			if rows := score("", backend, t, all[:half], ml); rows[1].Fraction() >= 0.90 {
				fitted = t
				break
			}
		}
		results = append(results, score("ML fitted", backend, fitted, all[half:], ml)...)
	}

	fmt.Fprintf(w, "\nCredible-region coverage of the downlinked sky-map payload (1 MeV/cm², %d of %d trials localized;\n", len(all), trials)
	fmt.Fprintf(w, "ML fitted: T fitted on %d calibration trials, scored on the other %d)\n", half, len(all)-half)
	fmt.Fprintf(w, "  %-11s %-8s %-5s %-6s %-9s %-14s\n", "arm", "backend", "T", "level", "coverage", "mean area deg²")
	for _, r := range results {
		backend := string(r.Backend)
		if backend == "" {
			backend = "-"
		}
		fmt.Fprintf(w, "  %-11s %-8s %-5g %-6.2f %-9.3f %-14.1f\n", r.Arm, backend, r.Temperature, r.Level, r.Fraction(), r.MeanAreaDeg2)
	}
	return results
}
