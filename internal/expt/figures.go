package expt

import (
	"fmt"
	"io"

	"repro/internal/pipeline"
)

// Fig4 reproduces the motivation study (paper Fig. 4): localization accuracy
// of the no-ML pipeline on a 1 MeV/cm², normally-incident burst, for the
// default pipeline versus the two oracle arms (background rings removed
// using ground truth; dη replaced by the realized η error).
func Fig4(w io.Writer, sc Scale) []Series {
	e := newEnv()
	arms := []struct {
		name      string
		configure func(*pipeline.Options)
	}{
		{"background + dEta error (default)", nil},
		{"background removed (oracle)", func(o *pipeline.Options) { o.OracleBackground = true }},
		{"true dEta (oracle)", func(o *pipeline.Options) { o.OracleDEta = true }},
	}
	var out []Series
	for i, arm := range arms {
		c68, c95 := e.evaluate(sc, 0x40+uint64(i), evalCase{
			fluence: 1.0, polarDeg: 0, configure: arm.configure,
		})
		out = append(out, Series{Name: arm.name, Points: []Point{{X: 1.0, C68: c68, C95: c95}}})
	}
	fmt.Fprintf(w, "\nFig. 4 — impact of background particles and dEta error on localization accuracy\n")
	fmt.Fprintf(w, "(1 MeV/cm², normal incidence, no-ML pipeline; error bars over %d meta-trials)\n", sc.MetaTrials)
	fmt.Fprintf(w, "  %-36s %-16s %-16s\n", "arm", "68% cont. (deg)", "95% cont. (deg)")
	for _, s := range out {
		fmt.Fprintf(w, "  %-36s %-16s %-16s\n", s.Name, s.Points[0].C68, s.Points[0].C95)
	}
	return out
}

// Fig7 reproduces the polar-angle-input ablation (paper Fig. 7):
// localization error versus source polar angle for models trained with and
// without the polar-angle feature.
func Fig7(w io.Writer, sc Scale) []Series {
	e := newEnv()
	withPolar := SharedBundle(sc)
	noPolar := NoPolarBundle(sc)
	var sWith, sWithout Series
	sWith.Name = "Polar"
	sWithout.Name = "No Polar"
	for _, a := range polarGrid(sc) {
		c68, c95 := e.evaluate(sc, 0x700+uint64(a), evalCase{
			fluence: 1.0, polarDeg: a,
			configure: func(o *pipeline.Options) { o.Bundle = withPolar },
		})
		sWith.Points = append(sWith.Points, Point{X: a, C68: c68, C95: c95})
		c68, c95 = e.evaluate(sc, 0x780+uint64(a), evalCase{
			fluence: 1.0, polarDeg: a,
			configure: func(o *pipeline.Options) { o.Bundle = noPolar },
		})
		sWithout.Points = append(sWithout.Points, Point{X: a, C68: c68, C95: c95})
	}
	out := []Series{sWithout, sWith}
	printSeries(w, "Fig. 7 — impact of including polar angle as a model input (1 MeV/cm²)", "polar(deg)", out)
	return out
}

// Fig8 reproduces localization accuracy versus polar angle for the ML
// pipeline against the prior no-ML pipeline (paper Fig. 8).
func Fig8(w io.Writer, sc Scale) []Series {
	e := newEnv()
	bundle := SharedBundle(sc)
	var noML, ml Series
	noML.Name = "without NN models"
	ml.Name = "with NN models"
	for _, a := range polarGrid(sc) {
		c68, c95 := e.evaluate(sc, 0x800+uint64(a), evalCase{fluence: 1.0, polarDeg: a})
		noML.Points = append(noML.Points, Point{X: a, C68: c68, C95: c95})
		c68, c95 = e.evaluate(sc, 0x880+uint64(a), evalCase{
			fluence: 1.0, polarDeg: a,
			configure: func(o *pipeline.Options) { o.Bundle = bundle },
		})
		ml.Points = append(ml.Points, Point{X: a, C68: c68, C95: c95})
	}
	out := []Series{noML, ml}
	printSeries(w, "Fig. 8 — localization accuracy vs polar angle (1 MeV/cm²)", "polar(deg)", out)
	return out
}

// Fig9Fluences is the brightness grid for the fluence study.
var Fig9Fluences = []float64{0.25, 0.5, 1.0, 2.0, 4.0}

// Fig9 reproduces localization accuracy versus fluence for normally
// incident bursts (paper Fig. 9).
func Fig9(w io.Writer, sc Scale) []Series {
	e := newEnv()
	bundle := SharedBundle(sc)
	var noML, ml Series
	noML.Name = "without NN models"
	ml.Name = "with NN models"
	for i, f := range Fig9Fluences {
		c68, c95 := e.evaluate(sc, 0x900+uint64(i), evalCase{fluence: f, polarDeg: 0})
		noML.Points = append(noML.Points, Point{X: f, C68: c68, C95: c95})
		c68, c95 = e.evaluate(sc, 0x980+uint64(i), evalCase{
			fluence: f, polarDeg: 0,
			configure: func(o *pipeline.Options) { o.Bundle = bundle },
		})
		ml.Points = append(ml.Points, Point{X: f, C68: c68, C95: c95})
	}
	out := []Series{noML, ml}
	printSeries(w, "Fig. 9 — localization accuracy vs fluence (normal incidence)", "MeV/cm^2", out)
	return out
}

// Fig10Epsilons is the perturbation grid of the robustness study (§IV).
var Fig10Epsilons = []float64{0, 1, 5, 10}

// Fig10 reproduces the robustness study (paper Fig. 10): Gaussian noise
// with σ = ε% of each hit's spatial and energy values is injected before
// reconstruction.
func Fig10(w io.Writer, sc Scale) []Series {
	e := newEnv()
	bundle := SharedBundle(sc)
	var noML, ml Series
	noML.Name = "without NN models"
	ml.Name = "with NN models"
	for i, eps := range Fig10Epsilons {
		c68, c95 := e.evaluate(sc, 0xA00+uint64(i), evalCase{fluence: 1.0, polarDeg: 0, epsilonPct: eps})
		noML.Points = append(noML.Points, Point{X: eps, C68: c68, C95: c95})
		c68, c95 = e.evaluate(sc, 0xA80+uint64(i), evalCase{
			fluence: 1.0, polarDeg: 0, epsilonPct: eps,
			configure: func(o *pipeline.Options) { o.Bundle = bundle },
		})
		ml.Points = append(ml.Points, Point{X: eps, C68: c68, C95: c95})
	}
	out := []Series{noML, ml}
	printSeries(w, "Fig. 10 — localization accuracy with perturbed inputs (1 MeV/cm², normal incidence)", "epsilon(%)", out)
	return out
}

// Fig11 reproduces the quantized-model accuracy study (paper Fig. 11):
// localization accuracy across polar angles using the INT8 background
// network versus its FP32 (layer-swapped, fused-trainable) counterpart,
// both with the FP32 dEta model.
func Fig11(w io.Writer, sc Scale) []Series {
	e := newEnv()
	int8net, swapped := Int8Background(sc)
	var fp32, int8s Series
	fp32.Name = "FP32"
	int8s.Name = "INT8"
	for _, a := range polarGrid(sc) {
		c68, c95 := e.evaluate(sc, 0xB00+uint64(a), evalCase{
			fluence: 1.0, polarDeg: a,
			configure: func(o *pipeline.Options) { o.Bundle = swapped },
		})
		fp32.Points = append(fp32.Points, Point{X: a, C68: c68, C95: c95})
		c68, c95 = e.evaluate(sc, 0xB00+uint64(a), evalCase{
			fluence: 1.0, polarDeg: a,
			configure: func(o *pipeline.Options) {
				o.Bundle = swapped
				o.BkgOverride = int8net
			},
		})
		int8s.Points = append(int8s.Points, Point{X: a, C68: c68, C95: c95})
	}
	out := []Series{fp32, int8s}
	printSeries(w, "Fig. 11 — localization accuracy with quantized background model (1 MeV/cm²)", "polar(deg)", out)
	return out
}
