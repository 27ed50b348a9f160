package stream

import (
	"bytes"
	"testing"

	"repro/internal/features"
	"repro/internal/geom"
	"repro/internal/models/modelstest"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
)

// TestBackendAlertParity runs the same recorded events through both
// backends. The trigger is NN-independent (a Poisson count-rate test), so
// trigger identity must hold exactly across backends.
func TestBackendAlertParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := modelstest.QuantBundle(t, 81)
	events, meanRate := simSession(t, 13)

	run := func(backend pipeline.Backend) []Alert {
		cfg := DefaultConfig(meanRate)
		cfg.Seed = 42
		cfg.Bundle = b
		cfg.Backend = backend
		return Run(cfg, events)
	}
	f32 := run(pipeline.BackendFloat32)
	i8 := run(pipeline.BackendInt8)

	if len(f32) == 0 {
		t.Fatal("no alerts; burst not detected")
	}
	if len(i8) != len(f32) {
		t.Fatalf("alert counts differ: float32 %d, int8 %d", len(f32), len(i8))
	}
	for k := range f32 {
		rf, ri := f32[k].Record(), i8[k].Record()
		// Exact trigger identity across all backends.
		if ri.Seq != rf.Seq || ri.TriggerS != rf.TriggerS || ri.Significance != rf.Significance ||
			ri.BackgroundRateHz != rf.BackgroundRateHz || ri.NEvents != rf.NEvents {
			t.Errorf("alert %d: int8 trigger fields differ from float32:\n%+v\n%+v", k, ri, rf)
		}
		if !i8[k].Result.Loc.OK {
			t.Errorf("alert %d: int8 alert not localized", k)
		}
	}
}

// TestSkyMapFollowsBackend: an alert's sky map weights its rings with the
// background classifier its run used. Under int8 the payload must equal
// skymap.FromRings built from the int8 net's probabilities, and the
// float32-weighted map must differ from it, or the check could not tell
// the backends apart.
func TestSkyMapFollowsBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := modelstest.QuantBundle(t, 81)
	events, meanRate := simSession(t, 13)
	cfg := DefaultConfig(meanRate)
	cfg.Seed = 42
	cfg.Bundle = b
	cfg.Backend = pipeline.BackendInt8
	cfg.SkyMap = true
	cfg.Workers = 2
	alerts := Run(cfg, events)
	if len(alerts) == 0 {
		t.Fatal("no alerts; burst not detected")
	}
	for k, a := range alerts {
		if !a.Result.Loc.OK {
			continue
		}
		rings := make([]*recon.Ring, len(a.Result.ActiveRings))
		for i, r := range a.Result.ActiveRings {
			c := *r
			rings[i] = &c
		}
		polar := geom.Deg(geom.Polar(a.Result.Loc.Dir))
		pipeline.ApplyDEtaCalibrated(b, rings, polar)
		x := features.Matrix(rings, polar, b.WithPolar)
		b.BkgNorm.Apply(x)
		int8Probs := make([]float64, x.Rows)
		for i, p := range b.Int8.Probs(x) {
			int8Probs[i] = float64(p)
		}
		build := func(probs []float64) []byte {
			return skymap.FromRings(&cfg.Loc, rings, probs, skymap.Options{}).Encode()
		}
		want := build(int8Probs)
		if !bytes.Equal(a.SkyMapPayload, want) {
			t.Errorf("alert %d: int8 payload differs from the map weighted by the int8 net", k)
		}
		if bytes.Equal(build(pipeline.BackgroundProbs(b, rings, polar)), want) {
			t.Errorf("alert %d: float32 and int8 weights give the same map; the check cannot tell them apart", k)
		}
	}
}

// TestNewPanicsOnUnquantizedInt8: resolving the backend happens once at
// construction, so a misconfigured processor fails at startup, not at the
// first burst.
func TestNewPanicsOnUnquantizedInt8(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := modelstest.QuantBundle(t, 81)
	plain := *b
	plain.Int8 = nil
	cfg := DefaultConfig(1000)
	cfg.Bundle = &plain
	cfg.Backend = pipeline.BackendInt8
	defer func() {
		if recover() == nil {
			t.Error("New with int8 backend and unquantized bundle did not panic")
		}
	}()
	New(cfg)
}
