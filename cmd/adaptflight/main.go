// Command adaptflight runs a mission-analysis campaign: a population of
// bursts with a log N–log S brightness distribution processed by the full
// on-board system (trigger + localization), reporting detection efficiency
// and localization accuracy per fluence band, the estimated sensitivity
// threshold, and the false-alert count.
//
// Usage:
//
//	adaptflight -bursts 30
//	adaptflight -bursts 50 -models models.gob -alerts alerts.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/adapt"
	"repro/internal/campaign"
	"repro/internal/cli"
)

type alertRecord struct {
	Fluence     float64 `json:"fluence_mev_cm2"`
	PolarDeg    float64 `json:"true_polar_deg"`
	Detected    bool    `json:"detected"`
	Localized   bool    `json:"localized"`
	ErrorDeg    float64 `json:"error_deg,omitempty"`
	EstimateDeg float64 `json:"self_estimate_deg,omitempty"`
}

func main() {
	bursts := flag.Int("bursts", 30, "number of bursts to inject")
	seed := flag.Uint64("seed", 1, "campaign seed")
	modelFlags := cli.ModelFlags()
	alertsPath := flag.String("alerts", "", "write per-burst outcomes as JSON lines to this file")
	quiet := flag.Float64("quiet", 2, "quiet seconds around each burst")
	workers := cli.Parallelism()
	metricsFlags := cli.MetricsFlags(false)
	profile := cli.CPUProfile()
	cli.Parse("adaptflight")
	stop, err := profile.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	bundle, backend, err := modelFlags.Load()
	if err != nil {
		log.Fatal(err)
	}

	metrics := adapt.NewMetrics()
	cfg := campaign.DefaultConfig(*seed)
	cfg.Bursts = *bursts
	cfg.QuietSecondsPerBurst = *quiet
	cfg.Workers = *workers
	cfg.Backend = backend
	cfg.Bundle = bundle
	cfg.Metrics = metrics

	res := campaign.Run(cfg, os.Stdout)
	fmt.Printf("estimated 90%%-efficiency sensitivity: %.2f MeV/cm²\n", res.SensitivityFluence())
	if err := metricsFlags.Write(metrics); err != nil {
		log.Fatal(err)
	}

	if *alertsPath != "" {
		f, err := os.Create(*alertsPath)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		for _, o := range res.Outcomes {
			rec := alertRecord{
				Fluence:  o.Burst.Fluence,
				PolarDeg: o.Burst.PolarDeg,
				Detected: o.Detected, Localized: o.Localized,
				ErrorDeg: o.ErrorDeg, EstimateDeg: o.EstimateDeg,
			}
			if err := enc.Encode(rec); err != nil {
				log.Fatal(err)
			}
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d outcome records to %s", len(res.Outcomes), *alertsPath)
	}
}
