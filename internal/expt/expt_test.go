package expt

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func ciScale(t *testing.T) Scale {
	t.Helper()
	sc, ok := ScaleByName("ci")
	if !ok {
		t.Fatal("ci scale missing")
	}
	return sc
}

func TestScales(t *testing.T) {
	for _, name := range []string{"ci", "default", "full"} {
		sc, ok := ScaleByName(name)
		if !ok {
			t.Fatalf("scale %q missing", name)
		}
		if sc.Trials <= 0 || sc.MetaTrials <= 0 || sc.TrainEpochs <= 0 {
			t.Errorf("scale %q has zero fields: %+v", name, sc)
		}
	}
	full, _ := ScaleByName("full")
	if full.Trials != 100 || full.MetaTrials != 10 || full.TimingReps != 300 || full.TrainEpochs != 120 {
		t.Errorf("full scale does not match the paper protocol: %+v", full)
	}
	if _, ok := ScaleByName("bogus"); ok {
		t.Error("bogus scale resolved")
	}
	t.Setenv("ADAPT_SCALE", "ci")
	if CurrentScale().Name != "ci" {
		t.Error("ADAPT_SCALE not honored")
	}
	t.Setenv("ADAPT_SCALE", "nonsense")
	if CurrentScale().Name != "default" {
		t.Error("unknown ADAPT_SCALE should fall back to default")
	}
}

func TestPolarGrid(t *testing.T) {
	sc := Scale{PolarStepDeg: 10}
	g := polarGrid(sc)
	if len(g) != 9 || g[0] != 0 || g[8] != 80 {
		t.Errorf("10° grid = %v", g)
	}
	sc.PolarStepDeg = 40
	if g := polarGrid(sc); len(g) != 3 {
		t.Errorf("40° grid = %v", g)
	}
}

func TestTable3Output(t *testing.T) {
	var buf bytes.Buffer
	i8, f32 := Table3(&buf)
	out := buf.String()
	for _, want := range []string{"Table III", "INT8", "FP32", "Initiation Interval", "597"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III output missing %q", want)
		}
	}
	if i8.II >= f32.II {
		t.Error("Table III: INT8 II not below FP32")
	}
}

func TestFig4Ordering(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	series := Fig4(&buf, ciScale(t))
	if len(series) != 3 {
		t.Fatalf("Fig4 has %d arms", len(series))
	}
	def := series[0].Points[0]
	oracleBkg := series[1].Points[0]
	// The motivation figure's core claim: fully correcting background
	// improves containment versus the default arm.
	if oracleBkg.C95.Mean > def.C95.Mean+1 {
		t.Errorf("oracle background (%.2f) not better than default (%.2f) at 95%%",
			oracleBkg.C95.Mean, def.C95.Mean)
	}
	if !strings.Contains(buf.String(), "Fig. 4") {
		t.Error("missing figure header")
	}
}

func TestTimingTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation- and training-heavy")
	}
	sc := ciScale(t)
	var buf bytes.Buffer
	rows := Timing(&buf, sc, 1, "test table")
	if len(rows) != 6 {
		t.Fatalf("%d timing rows, want 6", len(rows))
	}
	names := []string{"Reconstruction", "Localization Setup", "DEta NN Inference", "Bkg NN Inference", "Approx + Refine", "Total (Max 5 iter)"}
	var total, sum float64
	for i, r := range rows {
		if r.Stage != names[i] {
			t.Errorf("row %d = %q, want %q", i, r.Stage, names[i])
		}
		if r.Summary.MeanMs < 0 || r.Summary.N != sc.TimingReps {
			t.Errorf("row %q summary %+v", r.Stage, r.Summary)
		}
		if r.Stage == "Total (Max 5 iter)" {
			total = r.Summary.MeanMs
		} else {
			sum += r.Summary.MeanMs
		}
	}
	// The stage decomposition must roughly add up to the total.
	if total < 0.7*sum || sum > 1.5*total+5 {
		t.Errorf("stage sum %.1f ms vs total %.1f ms", sum, total)
	}
}

func TestModelCacheReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	sc := ciScale(t)
	a := SharedBundle(sc)
	b := SharedBundle(sc)
	if a != b {
		t.Error("SharedBundle retrained instead of reusing the cache")
	}
	if p := CachePath(sc, "polar"); p == "" {
		t.Error("empty cache path")
	}
}

func TestQuantStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy")
	}
	var buf bytes.Buffer
	results := QuantStudy(&buf, ciScale(t))
	if len(results) != len(QuantStrategies) {
		t.Fatalf("%d results, want %d", len(results), len(QuantStrategies))
	}
	for _, r := range results {
		if r.Agreement < 0.8 {
			t.Errorf("%s agreement %v; quantization badly broken", r.Strategy.Name, r.Agreement)
		}
	}
}

func TestAPTStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	var buf bytes.Buffer
	series := APTStudy(&buf, ciScale(t))
	if len(series) != 2 {
		t.Fatalf("%d series", len(series))
	}
	// The paper's future-work claim: APT localizes dim bursts to within a
	// degree or so. Allow slack for ci-scale statistics.
	for _, s := range series {
		for _, p := range s.Points {
			if p.X >= 0.1 && p.C68.Mean > 3 {
				t.Errorf("%s at %.2f MeV/cm²: %.2f° not degree-scale", s.Name, p.X, p.C68.Mean)
			}
		}
	}
}

// TestFiguresSmoke runs every figure driver once at ci scale, checking the
// structural contract: correct series counts, all points populated with
// finite containment values. The figures run as parallel subtests, each
// writing to its own buffer; the model cache trains each bundle once.
func TestFiguresSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation- and training-heavy")
	}
	sc := ciScale(t)
	grid := len(polarGrid(sc))
	figures := []struct {
		name                   string
		run                    func(io.Writer, Scale) []Series
		wantSeries, wantPoints int
	}{
		{"fig7", Fig7, 2, grid},
		{"fig8", Fig8, 2, grid},
		{"fig9", Fig9, 2, len(Fig9Fluences)},
		{"fig10", Fig10, 2, len(Fig10Epsilons)},
		{"fig11", Fig11, 2, grid},
		{"ablation-thresholds", AblationThresholds, 2, 3},
		{"ablation-iterations", AblationIterations, 2, 2},
		{"ablation-gating", AblationGating, 2, 2},
		{"ablation-widening", AblationWidening, 3, 2},
		{"ablation-threecompton", AblationThreeCompton, 2, 2},
		{"ablation-detaloss", AblationDEtaLoss, 2, 2},
		{"pileup", PileUpStudy, len(PileUpWindows), 2},
	}
	for _, d := range figures {
		t.Run(d.name, func(t *testing.T) {
			t.Parallel()
			var buf bytes.Buffer
			series := d.run(&buf, sc)
			if len(series) != d.wantSeries {
				t.Fatalf("%d series, want %d", len(series), d.wantSeries)
			}
			for _, s := range series {
				if len(s.Points) != d.wantPoints {
					t.Fatalf("%q: %d points, want %d", s.Name, len(s.Points), d.wantPoints)
				}
				for _, p := range s.Points {
					if !(p.C68.Mean >= 0 && p.C68.Mean <= 180) || !(p.C95.Mean >= p.C68.Mean-1e-9) {
						t.Errorf("%q at x=%v: c68=%v c95=%v", s.Name, p.X, p.C68, p.C95)
					}
				}
			}
		})
	}
}

func TestCoverageStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation- and training-heavy")
	}
	var buf bytes.Buffer
	results := CoverageStudy(&buf, ciScale(t))
	// no-ML, then mixture, flown and fitted per backend; two levels each.
	if want := 2 * (1 + 3*len(pipeline.Backends)); len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	for _, r := range results {
		if r.Fraction() < 0 || r.Fraction() > 1 {
			t.Errorf("%s/%s@%v: coverage %v", r.Arm, r.Backend, r.Level, r.Fraction())
		}
		if r.Trials > 0 && r.MeanAreaDeg2 <= 0 {
			t.Errorf("%s/%s@%v: non-positive area", r.Arm, r.Backend, r.Level)
		}
	}
	// The empirically tempered arm must cover at least as well as the raw
	// ML mixture at the 90% level (that is its whole purpose).
	at90 := map[string]CoverageResult{}
	for _, r := range results {
		if r.Level == 0.90 {
			at90[r.Arm+"/"+string(r.Backend)] = r
		}
	}
	for _, b := range pipeline.Backends {
		mix, fit := at90["ML mixture/"+string(b)], at90["ML fitted/"+string(b)]
		if mix.Trials == 0 || fit.Trials == 0 {
			t.Errorf("%s: no trials in the mixture or fitted arm", b)
			continue
		}
		if fit.Fraction() < mix.Fraction() {
			t.Errorf("%s: fitted arm (%v) worse than raw mixture (%v) at 90%%", b, fit.Fraction(), mix.Fraction())
		}
	}
}
