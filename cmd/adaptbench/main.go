// Command adaptbench regenerates the paper's tables and figures as text
// output (see DESIGN.md §4 for the experiment index), optionally also
// writing the raw series data as JSON for downstream plotting.
//
// Usage:
//
//	adaptbench                        # everything, at the ADAPT_SCALE (default) size
//	adaptbench -scale ci              # quick smoke run
//	adaptbench -only fig9             # one experiment
//	adaptbench -only fig8 -json f.json
package main

import (
	"encoding/json"
	"flag"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/cli"
	"repro/internal/expt"
	"repro/internal/plot"
)

// maybePlot renders an ASCII chart of the series' 68% containment when
// enabled, passing the series through either way.
func maybePlot(w io.Writer, enabled bool, title, xlabel string, series []expt.Series) []expt.Series {
	if !enabled {
		return series
	}
	var curves []plot.Curve
	for _, s := range series {
		c := plot.Curve{Name: s.Name}
		for _, p := range s.Points {
			c.Points = append(c.Points, plot.XY{X: p.X, Y: p.C68.Mean})
		}
		curves = append(curves, c)
	}
	plot.Lines(w, title, xlabel, "deg", curves, 56, 14)
	return series
}

func main() {
	scaleName := flag.String("scale", "", "workload scale: ci, default, or full (overrides ADAPT_SCALE)")
	only := flag.String("only", "", "run one experiment: fig4, fig7, fig8, fig9, fig10, fig11, table1, table2, table3, ablations, apt, pileup, quant, coverage")
	jsonPath := flag.String("json", "", "also write the experiment data as JSON to this file")
	plots := flag.Bool("plots", false, "render ASCII charts of figure series (with -only fig…)")
	cli.Parallelism()
	profile := cli.CPUProfile()
	cli.Parse("adaptbench")

	stop, err := profile.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	sc := expt.CurrentScale()
	if *scaleName != "" {
		var ok bool
		sc, ok = expt.ScaleByName(*scaleName)
		if !ok {
			log.Fatalf("unknown scale %q (want ci, default, or full)", *scaleName)
		}
	}
	w := os.Stdout
	data := map[string]any{"scale": sc.Name}

	switch strings.ToLower(*only) {
	case "":
		expt.RunAll(w, sc)
		data["note"] = "run with -only <experiment> -json to capture series data"
	case "fig4":
		data["fig4"] = expt.Fig4(w, sc)
	case "fig7":
		data["fig7"] = maybePlot(w, *plots, "Fig. 7 (68% containment)", "polar deg", expt.Fig7(w, sc))
	case "fig8":
		data["fig8"] = maybePlot(w, *plots, "Fig. 8 (68% containment)", "polar deg", expt.Fig8(w, sc))
	case "fig9":
		data["fig9"] = maybePlot(w, *plots, "Fig. 9 (68% containment)", "MeV/cm²", expt.Fig9(w, sc))
	case "fig10":
		data["fig10"] = maybePlot(w, *plots, "Fig. 10 (68% containment)", "epsilon %", expt.Fig10(w, sc))
	case "fig11":
		data["fig11"] = maybePlot(w, *plots, "Fig. 11 (68% containment)", "polar deg", expt.Fig11(w, sc))
	case "table1":
		data["table1"] = expt.TableI(w, sc)
	case "table2":
		data["table2"] = expt.TableII(w, sc)
	case "table3":
		i8, f32 := expt.Table3(w)
		data["table3"] = map[string]any{"int8": i8, "fp32": f32}
	case "ablations":
		data["thresholds"] = expt.AblationThresholds(w, sc)
		data["iterations"] = expt.AblationIterations(w, sc)
		data["gating"] = expt.AblationGating(w, sc)
		data["widening"] = expt.AblationWidening(w, sc)
		data["threecompton"] = expt.AblationThreeCompton(w, sc)
		data["detaloss"] = expt.AblationDEtaLoss(w, sc)
	case "apt":
		data["apt"] = expt.APTStudy(w, sc)
	case "pileup":
		data["pileup"] = expt.PileUpStudy(w, sc)
	case "quant":
		data["quant"] = expt.QuantStudy(w, sc)
	case "coverage":
		data["coverage"] = expt.CoverageStudy(w, sc)
	default:
		log.Fatalf("unknown experiment %q", *only)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(data); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote JSON data to %s", *jsonPath)
	}
}
