// Command adaptloc simulates a burst and runs the full localization
// pipeline on it, printing the inferred direction, its error, and the
// per-stage timing decomposition.
//
// Usage:
//
//	adaptloc -fluence 1.0 -polar 40 -models models.gob
//	adaptloc -parallelism 4 -repeat 20 -report        # stage-timing report
//	adaptloc -cpuprofile cpu.pprof                    # profile the hot path
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	"repro/adapt"
	"repro/internal/cli"
	"repro/internal/evio"
	"repro/internal/geom"
	"repro/internal/plot"
)

func main() {
	fluence := flag.Float64("fluence", 1.0, "burst fluence in MeV/cm²")
	polar := flag.Float64("polar", 0, "source polar angle in degrees")
	azimuth := flag.Float64("azimuth", 30, "source azimuth in degrees")
	seed := flag.Uint64("seed", 1, "simulation seed")
	modelFlags := cli.ModelFlags()
	eventsPath := flag.String("events", "", "read events from an evio file (written by adaptsim -binary) instead of simulating")
	skymap := flag.Bool("skymap", false, "build the alert's downlink sky-map payload: print its 68%/90% credible areas and size, and render it")
	skymapTemp := flag.Float64("skymap-temp", 0, "sky-map tempering temperature (0 = the calibrated default, 1 = statistical-only)")
	workers := cli.Parallelism()
	repeat := flag.Int("repeat", 1, "run the pipeline this many times (same events; use with -report for stable stage statistics)")
	metricsFlags := cli.MetricsFlags(true)
	profile := cli.CPUProfile()
	cli.Parse("adaptloc")
	if *skymapTemp < 0 {
		log.Fatal("-skymap-temp must be >= 0 (0 = calibrated default)")
	}
	stop, err := profile.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	m, backend, err := modelFlags.Load()
	if err != nil {
		log.Fatal(err)
	}

	inst := adapt.DefaultInstrument()
	inst.Workers = *workers
	inst.Backend = backend
	metrics := adapt.NewMetrics()
	inst.Metrics = metrics

	var events []*adapt.Event
	var truth *geom.Vec
	if *eventsPath != "" {
		f, err := os.Open(*eventsPath)
		if err != nil {
			log.Fatal(err)
		}
		events, err = evio.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			log.Fatalf("read events: %v", err)
		}
		// Recover the truth direction from the GRB events' ground truth,
		// if present, for error reporting.
		for _, ev := range events {
			if ev.Source.String() == "grb" {
				t := ev.TrueSource
				truth = &t
				break
			}
		}
	} else {
		obs := inst.Observe(adapt.Burst{Fluence: *fluence, PolarDeg: *polar, AzimuthDeg: *azimuth}, *seed)
		events = obs.Events
		t := obs.TrueDirection
		truth = &t
	}

	if *repeat < 1 {
		*repeat = 1
	}
	res := inst.LocalizeEvents(events, m, *seed)
	for i := 1; i < *repeat; i++ {
		inst.LocalizeEvents(events, m, *seed)
	}
	if !res.Loc.OK {
		log.Fatal("localization failed: no usable rings")
	}

	fmt.Printf("inferred direction: polar %.2f°, azimuth %.2f°\n",
		geom.Deg(geom.Polar(res.Loc.Dir)), geom.Deg(geom.Azimuth(res.Loc.Dir)))
	if truth != nil {
		fmt.Printf("true direction:     polar %.2f°, azimuth %.2f°\n",
			geom.Deg(geom.Polar(*truth)), geom.Deg(geom.Azimuth(*truth)))
		fmt.Printf("localization error: %.2f°\n", res.Loc.ErrorDeg(*truth))
	}
	fmt.Printf("self-reported 1σ radius: %.2f°\n", res.ErrorRadiusDeg)
	fmt.Printf("rings: %d reconstructed, %d kept after background filter\n", res.Rings, res.Kept)
	if m != nil {
		fmt.Printf("NN loop iterations: %d\n", res.NNIterations)
	}
	fmt.Printf("timing: reconstruction %.1fms, setup %.1fms, bkg NN %.1fms, dEta NN %.1fms, approx+refine %.1fms, total %.1fms\n",
		res.Timing.Reconstruction.Seconds()*1e3,
		res.Timing.Setup.Seconds()*1e3,
		res.Timing.BkgNN.Seconds()*1e3,
		res.Timing.DEtaNN.Seconds()*1e3,
		res.Timing.ApproxRefine.Seconds()*1e3,
		res.Timing.Total.Seconds()*1e3)

	if err := metricsFlags.Write(metrics); err != nil {
		log.Fatal(err)
	}
	if metricsFlags.JSONPath != "" {
		log.Printf("wrote stage metrics to %s", metricsFlags.JSONPath)
	}

	if *skymap {
		pm := inst.BuildSkyMap(res, m, adapt.SkyMapOptions{Temperature: *skymapTemp})
		fmt.Printf("sky-map payload (T=%g, %d bytes): 68%% area %.1f deg², 90%% area %.1f deg²\n",
			pm.Temperature, pm.EncodedSize(), pm.Area68, pm.Area90)
		marks := map[byte]geom.Vec{'L': res.Loc.Dir}
		if truth != nil {
			marks['T'] = *truth
		}
		plot.Density(os.Stdout, func(d geom.Vec) float64 {
			return math.Exp(pm.LogDensity(d))
		}, marks, 27, "orthographic view from zenith; shading = payload posterior density, L = localization, T = truth")
	}
}
