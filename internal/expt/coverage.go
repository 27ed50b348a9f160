package expt

import (
	"fmt"
	"io"

	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/sky"
	"repro/internal/xrand"
)

// CoverageResult reports one arm × level of the credible-region
// calibration study.
type CoverageResult struct {
	Arm          string
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
// inflation (posterior tempering) of the third arm.
var coverageTemperatures = []float64{1, 2, 4, 8, 16, 32}

// CoverageStudy validates the system's *self-reported* localization
// uncertainty: over many bursts, the p-credible region of the downlinked
// posterior sky map should contain the true direction in ≈ p of trials.
// A flight system whose regions undercover wastes follow-up telescope time.
//
// Three arms, telling the full calibration story:
//
//  1. "no-ML (analytic)": robust likelihood over all rings with analytic
//     dη — overconfident, the paper's "false certainty" failure mode seen
//     as a coverage deficit.
//  2. "ML mixture": the flight product — background-filter survivors,
//     dEta-network-calibrated widths, classifier-weighted mixture
//     likelihood. Better, but statistical widths cannot absorb the
//     estimator's systematic error.
//  3. "ML + empirical": arm 2's posterior tempered by a factor fitted on
//     an independent calibration half of the trials — the standard
//     mission practice (cf. Fermi-GBM's empirically fitted systematic
//     localization error).
//
// This calibration view is an addition of this reproduction; the paper
// evaluates only ground-truth containment.
func CoverageStudy(w io.Writer, sc Scale) []CoverageResult {
	e := newEnv()
	rc := recon.DefaultConfig()
	lc := localize.DefaultConfig()
	bundle := SharedBundle(sc)
	grid := sky.NewGrid(24)
	levels := []float64{0.68, 0.90}
	arms := []string{"no-ML (analytic)", "ML mixture", "ML + empirical"}
	results := make([]CoverageResult, 0, len(arms)*len(levels))
	for _, arm := range arms {
		for _, p := range levels {
			results = append(results, CoverageResult{Arm: arm, Level: p})
		}
	}
	at := func(arm, level int) *CoverageResult { return &results[arm*len(levels)+level] }

	type trialMaps struct {
		truth   geom.Vec
		mlMap   *sky.Map
		noMLMap *sky.Map
	}
	var all []trialMaps

	root := xrand.New(0xC0F)
	trials := sc.Trials * sc.MetaTrials
	for trial := 0; trial < trials; trial++ {
		rng := root.Split(uint64(trial) + 1)
		burst := detector.Burst{
			Fluence:    1.0,
			PolarDeg:   rng.Uniform(0, 70),
			AzimuthDeg: rng.Uniform(0, 360),
		}
		events := detector.SimulateBurst(&e.det, burst, rng)
		events = append(events, e.bg.Simulate(&e.det, 1.0, rng)...)
		var rings []*recon.Ring
		for _, ev := range events {
			if r, ok := recon.Reconstruct(&rc, ev); ok {
				rings = append(rings, r)
			}
		}
		if len(rings) < lc.MinRings {
			continue
		}

		tm := trialMaps{truth: burst.SourceDirection()}
		tm.noMLMap = sky.Likelihood(&lc, rings, grid)

		opts := pipeline.DefaultOptions()
		opts.Bundle = bundle
		pres := pipeline.Run(opts, events, rng)
		if !pres.Loc.OK {
			continue
		}
		rings, probs := pipeline.ProductRings(bundle, &pres)
		tm.mlMap = sky.MixtureLikelihood(&lc, rings, probs, grid)
		all = append(all, tm)
	}

	// Arms 1 and 2 evaluate on every trial.
	for _, tm := range all {
		for li, p := range levels {
			r := at(0, li)
			r.Trials++
			if tm.noMLMap.Contains(tm.truth, p) {
				r.Covered++
			}
			r.MeanAreaDeg2 += tm.noMLMap.CredibleAreaDeg2(p)

			r = at(1, li)
			r.Trials++
			if tm.mlMap.Contains(tm.truth, p) {
				r.Covered++
			}
			r.MeanAreaDeg2 += tm.mlMap.CredibleAreaDeg2(p)
		}
	}

	// Arm 3: fit the temperature on the first half, evaluate on the second.
	half := len(all) / 2
	temperature := coverageTemperatures[len(coverageTemperatures)-1]
	for _, t := range coverageTemperatures {
		covered := 0
		for _, tm := range all[:half] {
			if tm.mlMap.Tempered(t).Contains(tm.truth, 0.90) {
				covered++
			}
		}
		if half > 0 && float64(covered)/float64(half) >= 0.90 {
			temperature = t
			break
		}
	}
	for _, tm := range all[half:] {
		m := tm.mlMap.Tempered(temperature)
		for li, p := range levels {
			r := at(2, li)
			r.Trials++
			if m.Contains(tm.truth, p) {
				r.Covered++
			}
			r.MeanAreaDeg2 += m.CredibleAreaDeg2(p)
		}
	}

	for i := range results {
		if results[i].Trials > 0 {
			results[i].MeanAreaDeg2 /= float64(results[i].Trials)
		}
	}

	fmt.Fprintf(w, "\nCredible-region coverage calibration (1 MeV/cm², %d trials; fitted temperature %.0f)\n",
		trials, temperature)
	fmt.Fprintf(w, "  %-18s %-8s %-10s %-14s\n", "arm", "level", "coverage", "mean area deg²")
	for _, r := range results {
		fmt.Fprintf(w, "  %-18s %-8.2f %-10.3f %-14.1f\n", r.Arm, r.Level, r.Fraction(), r.MeanAreaDeg2)
	}
	return results
}
