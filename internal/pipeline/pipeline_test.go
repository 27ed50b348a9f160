package pipeline

import (
	"testing"

	"repro/internal/background"
	"repro/internal/datagen"
	"repro/internal/detector"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/xrand"
)

// simulateExposure builds one burst + background event list.
func simulateExposure(fluence, polar float64, seed uint64) ([]*detector.Event, detector.Burst) {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	rng := xrand.New(seed)
	burst := detector.Burst{Fluence: fluence, PolarDeg: polar, AzimuthDeg: 77}
	events := detector.SimulateBurst(&det, burst, rng)
	events = append(events, bg.Simulate(&det, 1.0, rng)...)
	return events, burst
}

// tinyBundle trains a minimal model pair once for the package's tests.
var tinyBundle = func() func(t *testing.T) *models.Bundle {
	var b *models.Bundle
	return func(t *testing.T) *models.Bundle {
		t.Helper()
		if b != nil {
			return b
		}
		cfg := datagen.DefaultConfig(21)
		cfg.BurstsPerAngle = 1
		cfg.PolarAnglesDeg = []float64{0, 40, 80}
		set := datagen.Generate(cfg)
		opts := models.DefaultTrainOptions(22)
		opts.MaxEpochs = 4
		opts.BkgLR = 5e-3
		opts.BkgBatch = 512
		b = models.Train(set, opts)
		return b
	}
}()

func TestRunNoML(t *testing.T) {
	events, burst := simulateExposure(1.0, 0, 1)
	res := Run(DefaultOptions(), events, xrand.New(2))
	if !res.Loc.OK {
		t.Fatal("no-ML pipeline failed to localize")
	}
	if res.Rings < 100 {
		t.Errorf("only %d rings", res.Rings)
	}
	if res.Kept != res.Rings {
		t.Errorf("no-ML run should keep all rings: %d vs %d", res.Kept, res.Rings)
	}
	if err := res.Loc.ErrorDeg(burst.SourceDirection()); err > 15 {
		t.Errorf("bright-burst error %v°", err)
	}
	tm := res.Timing
	if tm.Total <= 0 || tm.Reconstruction <= 0 || tm.ApproxRefine <= 0 {
		t.Error("timing not populated")
	}
	if tm.BkgNN != 0 || tm.DEtaNN != 0 {
		t.Error("NN stage timing nonzero without models")
	}
}

func TestRunEmptyEvents(t *testing.T) {
	res := Run(DefaultOptions(), nil, xrand.New(3))
	if res.Loc.OK {
		t.Error("OK with no events")
	}
	if res.Rings != 0 {
		t.Error("rings from nothing")
	}
}

func TestOracleArms(t *testing.T) {
	events, burst := simulateExposure(1.0, 0, 4)
	base := Run(DefaultOptions(), events, xrand.New(5))

	events2, _ := simulateExposure(1.0, 0, 4)
	optsB := DefaultOptions()
	optsB.OracleBackground = true
	oracleB := Run(optsB, events2, xrand.New(5))
	if !oracleB.Loc.OK {
		t.Fatal("oracle-background failed")
	}
	// Every surviving ring is non-background by construction; the kept
	// count drops well below the reconstructed count (Rings is the
	// pre-filter tally in both runs).
	if oracleB.Kept >= base.Kept {
		t.Errorf("oracle background did not remove rings: kept %d vs %d", oracleB.Kept, base.Kept)
	}

	events3, _ := simulateExposure(1.0, 0, 4)
	optsD := DefaultOptions()
	optsD.OracleDEta = true
	oracleD := Run(optsD, events3, xrand.New(5))
	if !oracleD.Loc.OK {
		t.Fatal("oracle-dEta failed")
	}
	// Oracle dη typically gives the best accuracy of the three (Fig. 4);
	// assert it at least localizes well on a bright burst.
	if err := oracleD.Loc.ErrorDeg(burst.SourceDirection()); err > 5 {
		t.Errorf("oracle-dEta error %v°", err)
	}
}

func TestRunWithModels(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := tinyBundle(t)
	events, burst := simulateExposure(1.0, 0, 6)
	opts := DefaultOptions()
	opts.Bundle = b
	res := Run(opts, events, xrand.New(7))
	if !res.Loc.OK {
		t.Fatal("ML pipeline failed")
	}
	if res.NNIterations < 1 || res.NNIterations > opts.MaxNNIters {
		t.Errorf("NN iterations = %d", res.NNIterations)
	}
	if res.RingsFirstBkg != res.Rings {
		t.Errorf("first bkg pass saw %d rings of %d", res.RingsFirstBkg, res.Rings)
	}
	if res.Kept <= 0 || res.Kept > res.Rings {
		t.Errorf("kept %d of %d", res.Kept, res.Rings)
	}
	if res.Timing.BkgNN <= 0 || res.Timing.DEtaNN <= 0 {
		t.Error("NN stage timings not populated")
	}
	if res.FlaggedBkg == 0 {
		t.Error("classifier flagged no background at all")
	}
	if err := res.Loc.ErrorDeg(burst.SourceDirection()); err > 15 {
		t.Errorf("ML bright-burst error %v°", err)
	}
}

func TestAblationSwitches(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := tinyBundle(t)
	events, _ := simulateExposure(1.0, 0, 8)
	opts := DefaultOptions()
	opts.Bundle = b
	opts.DisableDEtaNN = true
	res := Run(opts, events, xrand.New(9))
	if res.NNIterations == 0 {
		t.Error("bkg loop should run with dEta disabled")
	}
}

func TestMaxNNItersBound(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := tinyBundle(t)
	events, _ := simulateExposure(1.0, 0, 10)
	opts := DefaultOptions()
	opts.Bundle = b
	opts.MaxNNIters = 1
	opts.ConvergeDeg = 0 // never converge early
	res := Run(opts, events, xrand.New(11))
	if res.NNIterations != 1 {
		t.Errorf("iterations = %d, want exactly 1", res.NNIterations)
	}
}

func TestBkgOverrideIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := tinyBundle(t)
	events, _ := simulateExposure(1.0, 0, 12)

	// An override that flags nothing: every ring survives.
	opts := DefaultOptions()
	opts.Bundle = b
	opts.BkgOverride = constClassifier(0)
	res := Run(opts, events, xrand.New(13))
	if res.FlaggedBkg != 0 || res.FlaggedGRB != 0 {
		t.Error("flag-nothing override still flagged rings")
	}
	if res.Kept != res.Rings {
		t.Errorf("kept %d of %d with flag-nothing override", res.Kept, res.Rings)
	}
}

// constClassifier returns a fixed probability for every ring.
type constClassifier float32

func (c constClassifier) Probs(x *nn.Tensor) []float32 {
	out := make([]float32, x.Rows)
	for i := range out {
		out[i] = float32(c)
	}
	return out
}

func TestParallelMatchesSerial(t *testing.T) {
	events, _ := simulateExposure(1.0, 20, 14)
	opts1 := DefaultOptions()
	opts1.Workers = 1
	opts4 := DefaultOptions()
	opts4.Workers = 4
	r1 := Run(opts1, events, xrand.New(15))
	r4 := Run(opts4, events, xrand.New(15))
	if r1.Rings != r4.Rings {
		t.Errorf("worker count changed ring count: %d vs %d", r1.Rings, r4.Rings)
	}
	if r1.Loc.Dir.Sub(r4.Loc.Dir).Norm() > 1e-9 {
		t.Error("worker count changed the localization result")
	}
}
