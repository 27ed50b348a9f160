package adapt

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestObserveDeterministic(t *testing.T) {
	inst := DefaultInstrument()
	b := Burst{Fluence: 1.0, PolarDeg: 20, AzimuthDeg: 45}
	o1 := inst.Observe(b, 7)
	o2 := inst.Observe(b, 7)
	if len(o1.Events) != len(o2.Events) {
		t.Fatal("same seed, different event counts")
	}
	if len(o1.Events) == 0 {
		t.Fatal("no events")
	}
	if o1.TrueDirection != b.SourceDirection() {
		t.Error("TrueDirection mismatch")
	}
	o3 := inst.Observe(b, 8)
	if len(o3.Events) == len(o1.Events) && o3.Events[0].TotalE() == o1.Events[0].TotalE() {
		t.Error("different seeds produced identical observations")
	}
}

func TestLocalizeNoML(t *testing.T) {
	inst := DefaultInstrument()
	obs := inst.Observe(Burst{Fluence: 1.5, PolarDeg: 10, AzimuthDeg: 200}, 3)
	res := inst.Localize(obs, nil)
	if !res.Loc.OK {
		t.Fatal("localization failed")
	}
	if err := res.Loc.ErrorDeg(obs.TrueDirection); err > 10 {
		t.Errorf("bright burst error %v°", err)
	}
}

func TestTrainSaveLoadLocalize(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	cfg := DefaultTraining(5)
	cfg.BurstsPerAngle = 1
	cfg.Epochs = 3
	m := TrainModels(cfg)
	if m.BkgTestAcc <= 0.4 {
		t.Errorf("classifier accuracy %v", m.BkgTestAcc)
	}

	path := filepath.Join(t.TempDir(), "m.gob")
	if err := SaveModels(m, path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModels(path)
	if err != nil {
		t.Fatal(err)
	}

	inst := DefaultInstrument()
	obs := inst.Observe(Burst{Fluence: 1.0, PolarDeg: 0}, 11)
	r1 := inst.Localize(obs, m)
	obs2 := inst.Observe(Burst{Fluence: 1.0, PolarDeg: 0}, 11)
	r2 := inst.Localize(obs2, m2)
	if !r1.Loc.OK || !r2.Loc.OK {
		t.Fatal("ML localization failed")
	}
	if r1.Loc.Dir.Sub(r2.Loc.Dir).Norm() > 1e-9 {
		t.Error("saved/loaded models changed the result")
	}
	if r1.NNIterations == 0 {
		t.Error("ML loop did not run")
	}

	// With models, BuildSkyMap renders the payload the ML alert carries.
	events, rate, _ := exposure(&inst, 3, []float64{1.5}, 5)
	alerts := inst.NewOnboardWithSkyMaps(m, rate, 0).ProcessExposure(events, 5)
	if len(alerts) != 1 || !alerts[0].Result.Loc.OK {
		t.Fatalf("%d alerts, want 1 localized", len(alerts))
	}
	if !bytes.Equal(inst.BuildSkyMap(alerts[0].Result, m, SkyMapOptions{}).Encode(), alerts[0].SkyMapPayload) {
		t.Error("BuildSkyMap differs from the ML alert's payload")
	}
}

func TestMaxNNItersKnob(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	cfg := DefaultTraining(6)
	cfg.BurstsPerAngle = 1
	cfg.Epochs = 2
	m := TrainModels(cfg)
	inst := DefaultInstrument()
	inst.MaxNNIters = 1
	obs := inst.Observe(Burst{Fluence: 1.0, PolarDeg: 0}, 12)
	res := inst.Localize(obs, m)
	if res.NNIterations > 1 {
		t.Errorf("early-exit knob ignored: %d iterations", res.NNIterations)
	}
}

func TestLoadModelsMissingFile(t *testing.T) {
	if _, err := LoadModels(filepath.Join(os.TempDir(), "definitely-missing.gob")); err == nil {
		t.Error("missing file loaded")
	}
}

func TestQuantizeBackgroundFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	cfg := TrainingQuantizable(Training{Seed: 9, BurstsPerAngle: 1, Epochs: 2, WithPolar: true})
	m := TrainModels(cfg)
	int8net, err := QuantizeBackground(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst := DefaultInstrument()
	obs := inst.Observe(Burst{Fluence: 1.0, PolarDeg: 20}, 77)
	r := inst.LocalizeQuantized(obs, m, int8net)
	if !r.Loc.OK {
		t.Fatal("quantized localization failed")
	}
	if r.NNIterations == 0 {
		t.Error("INT8 classifier loop did not run")
	}

	// The unswapped architecture must be rejected.
	plain := TrainModels(Training{Seed: 10, BurstsPerAngle: 1, Epochs: 2, WithPolar: true})
	if _, err := QuantizeBackground(plain, cfg); err == nil {
		t.Error("quantizing the unswapped architecture should fail")
	}
}
