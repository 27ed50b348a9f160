package adapt

import (
	"bytes"
	"testing"

	"repro/internal/detector"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

// exposure simulates duration seconds of background with a 2 MeV/cm²
// burst injected at each start time. It returns the events, the quiet-sky
// rate and the burst.
func exposure(inst *Instrument, duration float64, starts []float64, seed uint64) ([]*Event, float64, Burst) {
	rng := xrand.New(seed)
	events := inst.Background.Simulate(&inst.Detector, duration, rng)
	rate := float64(len(events)) / duration
	burst := Burst{Fluence: 2, PolarDeg: 20, AzimuthDeg: 130}
	for _, t0 := range starts {
		for _, ev := range detector.SimulateBurst(&inst.Detector, burst, rng) {
			ev.ArrivalTime += t0
			events = append(events, ev)
		}
	}
	return events, rate, burst
}

func TestOnboardQuiet(t *testing.T) {
	inst := DefaultInstrument()
	events, rate, _ := exposure(&inst, 3, nil, 2)
	if alerts := inst.NewOnboard(nil, rate).ProcessExposure(events, 2); len(alerts) != 0 {
		t.Errorf("%d false alerts on a background-only exposure", len(alerts))
	}
}

func TestOnboardDetectsAndLocalizes(t *testing.T) {
	inst := DefaultInstrument()
	events, rate, burst := exposure(&inst, 4, []float64{2}, 1)
	alerts := inst.NewOnboard(nil, rate).ProcessExposure(events, 1)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	if a.TriggerTime < 1.9 || a.TriggerTime > 2.4 {
		t.Errorf("trigger time %v, want ~2.0", a.TriggerTime)
	}
	if a.Significance < 8 {
		t.Errorf("significance %v below threshold", a.Significance)
	}
	if !a.Result.Loc.OK {
		t.Fatal("alert without localization")
	}
	if err := a.Result.Loc.ErrorDeg(burst.SourceDirection()); err > 10 {
		t.Errorf("alert localization error %v°", err)
	}
}

func TestOnboardTwoBursts(t *testing.T) {
	inst := DefaultInstrument()
	events, rate, _ := exposure(&inst, 8, []float64{1.5, 5.5}, 3)
	alerts := inst.NewOnboard(nil, rate).ProcessExposure(events, 3)
	if len(alerts) != 2 {
		t.Fatalf("%d alerts, want 2", len(alerts))
	}
	if alerts[1].TriggerTime < alerts[0].TriggerTime+1 {
		t.Error("second alert inside the first burst window")
	}
}

func TestOnboardSkyMaps(t *testing.T) {
	inst := DefaultInstrument()
	events, rate, burst := exposure(&inst, 3, []float64{1.5}, 5)
	alerts := inst.NewOnboardWithSkyMaps(nil, rate, 8).ProcessExposure(events, 5)
	if len(alerts) != 1 {
		t.Fatalf("%d alerts, want 1", len(alerts))
	}
	a := alerts[0]
	m, err := skymap.Decode(a.SkyMapPayload)
	if err != nil {
		t.Fatalf("alert sky map: %v", err)
	}
	if a.Area90Deg2 <= 0 {
		t.Error("non-positive credible area")
	}
	if !m.Contains(burst.SourceDirection(), 0.99) {
		t.Error("99% credible region misses the truth on a bright burst")
	}
	if !bytes.Equal(inst.BuildSkyMap(a.Result, nil, SkyMapOptions{Temperature: 8}).Encode(), a.SkyMapPayload) {
		t.Error("BuildSkyMap differs from the alert's payload")
	}
	// Without sky maps, no payload.
	if plain := inst.NewOnboard(nil, rate).ProcessExposure(events, 5); len(plain) == 1 && plain[0].SkyMapPayload != nil {
		t.Error("map built by NewOnboard")
	}
}
