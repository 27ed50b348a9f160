// Onboard: the full flight scenario. A multi-second observation campaign is
// simulated — continuous atmospheric background with gamma-ray bursts
// injected at unknown times — and the on-board system must *detect* each
// burst with its count-rate trigger and *localize* it with the Fig. 6
// pipeline, all without ground contact (paper §I).
//
// The example also shows the paper's real-time accuracy-for-latency trade
// (§III): each detected burst is additionally localized with a 1-iteration
// NN budget, as if the system were heavily loaded.
package main

import (
	"fmt"
	"log"

	"repro/adapt"
)

func main() {
	log.SetFlags(0)

	log.Println("training models (quick settings)...")
	cfg := adapt.DefaultTraining(3)
	cfg.BurstsPerAngle = 2
	cfg.Epochs = 15
	m := adapt.TrainModels(cfg)

	inst := adapt.DefaultInstrument()

	// Calibrate the quiet-sky rate from a burst-free exposure, as the
	// flight software would.
	quiet := inst.Observe(adapt.Burst{Fluence: 0}, 1)
	meanRate := float64(len(quiet.Events))
	log.Printf("calibrated background rate: %.0f events/s", meanRate)

	// A 10-second campaign with two bursts at unknown (to the system)
	// times and directions.
	type injected struct {
		t0    float64
		burst adapt.Burst
	}
	plan := []injected{
		{2.3, adapt.Burst{Fluence: 1.5, PolarDeg: 15, AzimuthDeg: 80}},
		{6.8, adapt.Burst{Fluence: 2.5, PolarDeg: 55, AzimuthDeg: 290}},
	}
	var events []*adapt.Event
	for sec := 0; sec < 10; sec++ {
		chunk := inst.Observe(adapt.Burst{Fluence: 0}, uint64(100+sec))
		for _, ev := range chunk.Events {
			ev.ArrivalTime += float64(sec)
			events = append(events, ev)
		}
	}
	for i, inj := range plan {
		obs := inst.Observe(inj.burst, uint64(500+i))
		for _, ev := range obs.Events {
			if ev.Source.String() == "grb" { // keep only the burst photons; background already simulated
				ev.ArrivalTime += inj.t0
				events = append(events, ev)
			}
		}
	}

	system := inst.NewOnboardWithSkyMaps(m, meanRate, 8)
	alerts := system.ProcessExposure(events, 42)
	fmt.Printf("campaign: 10 s, %d events, %d bursts injected, %d alerts raised\n",
		len(events), len(plan), len(alerts))

	for i, a := range alerts {
		fmt.Printf("\nalert %d: trigger at t=%.2fs (%.0fσ), %d events in window\n",
			i, a.TriggerTime, a.Significance, a.NEvents)
		if !a.Result.Loc.OK {
			fmt.Println("  localization failed")
			continue
		}
		// Match to the nearest injected burst for scoring.
		var truth adapt.Burst
		for _, inj := range plan {
			if a.TriggerTime >= inj.t0-0.5 && a.TriggerTime <= inj.t0+1.5 {
				truth = inj.burst
			}
		}
		fmt.Printf("  localized to %.2f° of the true direction in %.0f ms (%d NN iterations)\n",
			a.Result.Loc.ErrorDeg(truth.SourceDirection()),
			a.Result.Timing.Total.Seconds()*1e3, a.Result.NNIterations)
		if len(a.SkyMapPayload) > 0 {
			fmt.Printf("  downlink notice: 90%% credible area %.1f deg² (%d-byte map)\n", a.Area90Deg2, len(a.SkyMapPayload))
		}
	}

	// Accuracy-for-latency trade on the first burst.
	loaded := inst
	loaded.MaxNNIters = 1
	sysLoaded := loaded.NewOnboard(m, meanRate)
	alerts1 := sysLoaded.ProcessExposure(events, 42)
	if len(alerts1) > 0 && alerts1[0].Result.Loc.OK {
		fmt.Printf("\nloaded-system variant (1 NN iteration): first alert localized to %.2f° in %.0f ms\n",
			alerts1[0].Result.Loc.ErrorDeg(plan[0].burst.SourceDirection()),
			alerts1[0].Result.Timing.Total.Seconds()*1e3)
	}
}
