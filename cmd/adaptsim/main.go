// Command adaptsim simulates GRB exposures on the ADAPT detector. It has
// two modes:
//
// Plain simulation (default): one burst exposure, written as JSON-lines
// events (or reconstructed Compton rings, or the evio binary format):
//
//	adaptsim -fluence 1.0 -polar 20 -seed 7 -rings > events.jsonl
//
// Scenario mode (-scenario): run a chaos campaign scenario — a flight-like
// stress composition of bursts, background modulation, detector faults, and
// overload — through the full merge → stream pipeline and emit the
// machine-readable mission scorecard. The scorecard is a pure function of
// (spec, seed): byte-identical across runs and worker counts.
//
//	adaptsim -scenario flight -seed 11 > scorecard.json
//	adaptsim -scenario my-scenario.json -alerts alerts.jsonl -report
//	adaptsim -scenario-list
//	adaptsim -scenario saa -tune-trigger 16   # trigger-threshold search
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/adapt"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/evio"
	"repro/internal/obs"
	"repro/internal/recon"
	"repro/internal/tune"
)

type eventRecord struct {
	Source     string  `json:"source"`
	NHits      int     `json:"n_hits"`
	TotalE     float64 `json:"total_e_mev"`
	TrueEnergy float64 `json:"true_energy_mev"`
	Time       float64 `json:"arrival_s"`
}

type ringRecord struct {
	Background bool    `json:"background"`
	Eta        float64 `json:"eta"`
	DEta       float64 `json:"d_eta"`
	TrueEta    float64 `json:"true_eta"`
	AxisX      float64 `json:"axis_x"`
	AxisY      float64 `json:"axis_y"`
	AxisZ      float64 `json:"axis_z"`
	ETotal     float64 `json:"e_total_mev"`
}

func main() {
	// Plain-simulation parameters.
	fluence := flag.Float64("fluence", 1.0, "burst fluence in MeV/cm²")
	polar := flag.Float64("polar", 0, "source polar angle in degrees (0 = zenith)")
	azimuth := flag.Float64("azimuth", 0, "source azimuth in degrees")
	seed := flag.Uint64("seed", 1, "simulation seed")
	rings := flag.Bool("rings", false, "emit reconstructed Compton rings instead of raw events")
	binOut := flag.String("binary", "", "write events in the evio binary format to this file instead of JSON to stdout")

	// Scenario mode.
	scenario := flag.String("scenario", "", "run a chaos scenario: a JSON spec file path, or a built-in name (see -scenario-list)")
	scenarioList := flag.Bool("scenario-list", false, "list the built-in chaos scenarios as JSON and exit")
	scorecardPath := flag.String("scorecard", "", "write the scenario scorecard JSON to this file (default stdout)")
	alertsPath := flag.String("alerts", "", "write scenario alert records as JSON lines to this file")
	modelFlags := cli.ModelFlags()
	workers := cli.Parallelism()
	tuneTrigger := flag.Int("tune-trigger", 0, "random-search this many trigger candidates against the scenario objective and emit the best one's scorecard")
	tuneSeed := flag.Uint64("tune-seed", 1, "trigger-search seed")
	metrics := cli.MetricsFlags(true)
	cli.Parse("adaptsim")

	if *scenarioList {
		listScenarios()
		return
	}

	reg := obs.NewRegistry()
	if *scenario != "" {
		if err := runScenario(reg, *scenario, *seed, *workers, modelFlags,
			*scorecardPath, *alertsPath, *tuneTrigger, *tuneSeed); err != nil {
			log.Fatal(err)
		}
	} else {
		runPlain(reg, *fluence, *polar, *azimuth, *seed, *rings, *binOut)
	}
	if err := metrics.Write(reg); err != nil {
		log.Fatal(err)
	}
}

// listScenarios emits the built-in library as a JSON array.
func listScenarios() {
	type entry struct {
		Name             string  `json:"name"`
		Description      string  `json:"description"`
		DurationSec      float64 `json:"duration_sec"`
		Lanes            int     `json:"lanes"`
		Bursts           int     `json:"bursts"`
		Dropouts         int     `json:"dropouts"`
		Drifts           int     `json:"drifts"`
		SAAWindows       int     `json:"saa_windows"`
		Overload         bool    `json:"overload"`
		FalseAlertBudget int     `json:"false_alert_budget"`
	}
	var out []entry
	for _, s := range chaos.Library() {
		n := len(s.Bursts)
		if s.RandomBursts != nil {
			n += s.RandomBursts.Count
		}
		lanes := s.Lanes
		if lanes == 0 {
			lanes = 1
		}
		out = append(out, entry{
			Name:             s.Name,
			Description:      s.Description,
			DurationSec:      s.DurationSec,
			Lanes:            lanes,
			Bursts:           n,
			Dropouts:         len(s.Dropouts),
			Drifts:           len(s.Drifts),
			SAAWindows:       len(s.Background.SAA),
			Overload:         s.Overload != nil,
			FalseAlertBudget: s.FalseAlertBudget,
		})
	}
	blob, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(blob))
}

// loadScenario resolves -scenario: an existing file path wins, otherwise
// the built-in library.
func loadScenario(arg string) (*chaos.Spec, error) {
	if data, err := os.ReadFile(arg); err == nil {
		return chaos.ParseSpec(data)
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("read %s: %w", arg, err)
	}
	return chaos.Builtin(arg)
}

// runScenario prepares and runs one chaos scenario (optionally tuning the
// trigger first) and writes the scorecard and alert records.
func runScenario(reg *obs.Registry, arg string, seed uint64, workers int, modelFlags *cli.Models, scorecardPath, alertsPath string, tuneTrials int, tuneSeed uint64) error {
	spec, err := loadScenario(arg)
	if err != nil {
		return err
	}
	bundle, backend, err := modelFlags.Load()
	if err != nil {
		return err
	}

	prep, err := chaos.Prepare(spec, seed)
	if err != nil {
		return err
	}
	log.Printf("scenario %q prepared: %d bursts, calibrated quiet rate %.0f events/s",
		spec.Name, len(prep.Bursts()), prep.InitialRate())

	opts := chaos.Options{Workers: workers, Bundle: bundle, Backend: backend, Metrics: reg}

	trigger := spec.Trigger
	if tuneTrials > 0 {
		// Search without the registry so candidate runs don't pollute the
		// final run's metrics; the winning candidate is re-run with them.
		searchOpts := opts
		searchOpts.Metrics = nil
		results := tune.SearchTrigger(tune.DefaultTriggerSpace(), tune.TriggerOptions{
			Seed:   tuneSeed,
			Trials: tuneTrials,
			Logf:   log.Printf,
		}, prep.Objective(searchOpts))
		best := results[0]
		log.Printf("best trigger: %s (objective %.4f)", best.Candidate, best.Score)
		if best.Candidate != (tune.TriggerCandidate{}) {
			trigger = chaos.TriggerSpec{
				WindowSec:      best.Candidate.WindowSec,
				SigmaThreshold: best.Candidate.SigmaThreshold,
				RateAlpha:      best.Candidate.RateAlpha,
			}
		}
	}

	card, recs, err := prep.RunTrigger(trigger, opts)
	if err != nil {
		return err
	}

	if alertsPath != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		if err := os.WriteFile(alertsPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	if scorecardPath != "" {
		if err := os.WriteFile(scorecardPath, card.Encode(), 0o644); err != nil {
			return err
		}
	} else if _, err := os.Stdout.Write(card.Encode()); err != nil {
		return err
	}
	log.Printf("scenario %q: efficiency %.2f (%d/%d bursts), %d false alert(s) against budget %d, objective %.4f",
		card.Scenario, card.DetectionEfficiency, card.BurstsDetected, card.BurstsInjected,
		card.FalseAlerts, card.FalseAlertBudget, card.Objective)
	return nil
}

// runPlain is the original single-burst simulation mode, now with metrics.
func runPlain(reg *obs.Registry, fluence, polar, azimuth float64, seed uint64, rings bool, binOut string) {
	inst := adapt.DefaultInstrument()
	stop := reg.StartStage("sim_observe")
	obsr := inst.Observe(adapt.Burst{Fluence: fluence, PolarDeg: polar, AzimuthDeg: azimuth}, seed)
	stop()

	if binOut != "" {
		f, err := os.Create(binOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := evio.WriteAll(f, obsr.Events); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d events to %s\n", len(obsr.Events), binOut)
		return
	}

	enc := json.NewEncoder(os.Stdout)
	nGRB, nBkg := 0, 0
	for _, ev := range obsr.Events {
		if ev.Source.String() == "grb" {
			nGRB++
		} else {
			nBkg++
		}
		if rings {
			r, ok := recon.Reconstruct(&inst.Recon, ev)
			if !ok {
				continue
			}
			reg.Counter("sim_rings_reconstructed").Inc()
			rec := ringRecord{
				Background: r.Background,
				Eta:        r.Eta, DEta: r.DEta, TrueEta: r.TrueEta,
				AxisX: r.Axis.X, AxisY: r.Axis.Y, AxisZ: r.Axis.Z,
				ETotal: r.ETotal,
			}
			if err := enc.Encode(rec); err != nil {
				log.Fatal(err)
			}
			continue
		}
		rec := eventRecord{
			Source: ev.Source.String(), NHits: len(ev.Hits),
			TotalE: ev.TotalE(), TrueEnergy: ev.TrueEnergy, Time: ev.ArrivalTime,
		}
		if err := enc.Encode(rec); err != nil {
			log.Fatal(err)
		}
	}
	reg.Counter("sim_events_grb").Add(int64(nGRB))
	reg.Counter("sim_events_background").Add(int64(nBkg))
	fmt.Fprintf(os.Stderr, "simulated %d GRB + %d background detected events (fluence %.2f MeV/cm², polar %.0f°)\n",
		nGRB, nBkg, fluence, polar)
}
