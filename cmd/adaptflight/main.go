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
	"runtime/pprof"

	"repro/adapt"
	"repro/internal/buildinfo"
	"repro/internal/campaign"
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
	log.SetFlags(0)
	log.SetPrefix("adaptflight: ")
	bursts := flag.Int("bursts", 30, "number of bursts to inject")
	seed := flag.Uint64("seed", 1, "campaign seed")
	modelPath := flag.String("models", "", "trained model bundle (empty = no-ML pipeline)")
	backendName := flag.String("backend", "float32", "inference backend: float32 or int8 (int8 needs a bundle from adapttrain -quantize)")
	alertsPath := flag.String("alerts", "", "write per-burst outcomes as JSON lines to this file")
	quiet := flag.Float64("quiet", 2, "quiet seconds around each burst")
	parallelism := flag.Int("parallelism", 0, "worker count for the per-trial fan-out (0 = GOMAXPROCS, 1 = serial; outcomes identical either way)")
	report := flag.Bool("report", false, "print the per-stage latency report accumulated across all trials")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line("adaptflight"))
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	backend, err := adapt.ParseBackend(*backendName)
	if err != nil {
		log.Fatalf("%v", err)
	}

	adapt.SetDefaultParallelism(*parallelism)
	metrics := adapt.NewMetrics()
	cfg := campaign.DefaultConfig(*seed)
	cfg.Bursts = *bursts
	cfg.QuietSecondsPerBurst = *quiet
	cfg.Workers = *parallelism
	cfg.Backend = backend
	cfg.Metrics = metrics
	if *modelPath != "" {
		m, err := adapt.LoadModels(*modelPath)
		if err != nil {
			log.Fatalf("load models: %v", err)
		}
		cfg.Bundle = m
	}
	if _, err := adapt.NewClassifier(backend, cfg.Bundle); err != nil {
		log.Fatalf("%v", err)
	}

	res := campaign.Run(cfg, os.Stdout)
	fmt.Printf("estimated 90%%-efficiency sensitivity: %.2f MeV/cm²\n", res.SensitivityFluence())
	if *report {
		metrics.WriteText(os.Stdout)
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
