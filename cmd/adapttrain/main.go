// Command adapttrain trains the paper's two neural networks from freshly
// simulated data and saves the model bundle. It can also run the §III
// hyperparameter search (the paper used a WandB sweep over batch size,
// learning rate, depth, and widths) before training.
//
// Usage:
//
//	adapttrain -bursts 3 -epochs 30 -o models.gob
//	adapttrain -tune 12             # random search, report the best configs
package main

import (
	"flag"
	"log"
	"os"

	"repro/adapt"
	"repro/internal/cli"
	"repro/internal/datagen"
	"repro/internal/features"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tune"
	"repro/internal/xrand"
)

func main() {
	bursts := flag.Int("bursts", 3, "training bursts per polar angle (nine angles)")
	epochs := flag.Int("epochs", 30, "maximum training epochs (early stopping applies)")
	seed := flag.Uint64("seed", 7, "dataset and training seed")
	out := flag.String("o", "models.gob", "output model file")
	noPolar := flag.Bool("no-polar", false, "train the Fig. 7 ablation variant without the polar-angle input")
	quantize := flag.Bool("quantize", false, "also quantize the background net to INT8 and store it in the bundle (enables the int8 backend)")
	quantMode := flag.String("quant-mode", "qat", "quantization strategy when -quantize is set: qat (fine-tuned) or ptq (calibration only)")
	quiet := flag.Bool("q", false, "suppress per-epoch progress")
	tuneN := flag.Int("tune", 0, "run a random hyperparameter search with this many candidates before training (0 = off)")
	cli.Parse("adapttrain")

	var qmode models.QuantMode
	switch *quantMode {
	case "qat":
		qmode = models.ModeQAT
	case "ptq":
		qmode = models.ModePTQ
	default:
		log.Fatalf("unknown -quant-mode %q (want qat or ptq)", *quantMode)
	}

	if *tuneN > 0 {
		runTuner(*seed, *bursts, *tuneN, !*noPolar)
		return
	}

	cfg := adapt.Training{
		Seed:           *seed,
		BurstsPerAngle: *bursts,
		Epochs:         *epochs,
		WithPolar:      !*noPolar,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	if *quantize {
		// Quantization needs the fusion-friendly (layer-swapped) background
		// architecture.
		cfg = adapt.TrainingQuantizable(cfg)
	}
	m := adapt.TrainModels(cfg)
	log.Printf("background net test accuracy: %.3f", m.BkgTestAcc)
	log.Printf("dEta net test MSE (ln space): %.3f (width calibration %.2f)", m.DEtaTestMSE, m.DEtaScale)
	log.Printf("per-bin thresholds: %v", m.Thr.ByBin)

	if *quantize {
		// Quantize on the same training distribution the float net saw.
		gen := datagen.DefaultConfig(*seed)
		gen.BurstsPerAngle = *bursts
		set := datagen.Generate(gen)
		qopts := models.DefaultQuantizeOptions(*seed + 2)
		qopts.Mode = qmode
		if *epochs > 0 && *epochs < qopts.QATEpochs {
			qopts.QATEpochs = *epochs
		}
		if !*quiet {
			qopts.Logf = log.Printf
		}
		int8net, _, err := models.QuantizeBackground(m, set, qopts)
		if err != nil {
			log.Fatalf("quantize: %v", err)
		}
		m.Int8 = int8net
		log.Printf("quantized background net (%s) attached to bundle", qopts.Mode)
	}

	// Per-bin classifier report on a fresh evaluation set.
	evalGen := datagen.DefaultConfig(*seed + 100)
	evalGen.BurstsPerAngle = 1
	evalSet := datagen.Generate(evalGen)
	ds := datagen.BackgroundDataset(evalSet, m.WithPolar)
	m.BkgNorm.Apply(ds.X)
	probs := m.Bkg.PredictProbs(ds.X)
	log.Printf("held-out AUC: %.3f", models.AUC(probs, ds.Y))
	if m.Int8 != nil {
		log.Printf("held-out AUC (int8): %.3f", models.AUC(m.Int8.Probs(ds.X), ds.Y))
	}
	models.ReportByBin(os.Stderr, probs, ds.Y, datagen.PolarBins(evalSet), m.Thr)

	if err := adapt.SaveModels(m, *out); err != nil {
		log.Fatalf("save: %v", err)
	}
	log.Printf("saved models to %s", *out)
}

// runTuner reproduces the paper's hyperparameter sweep for the background
// network and prints the candidates best-first.
func runTuner(seed uint64, bursts, trials int, withPolar bool) {
	gen := datagen.DefaultConfig(seed)
	gen.BurstsPerAngle = bursts
	set := datagen.Generate(gen)
	ds := datagen.BackgroundDataset(set, withPolar)
	norm := features.FitNormalizer(ds.X)
	norm.Apply(ds.X)
	rng := xrand.New(seed + 1)
	train, val := ds.Split(0.8, rng)

	in := features.NumFeaturesNoPolar
	if withPolar {
		in = features.NumFeatures
	}
	results := tune.Search(tune.DefaultSpace(), tune.Options{
		Seed: seed + 2, Trials: trials, MaxEpochs: 15, Patience: 5,
		InFeatures: in, Loss: nn.BCEWithLogits{}, Build: models.NewMLP,
		Logf: log.Printf,
	}, train, val)

	log.Printf("top candidates (val BCE):")
	for i, r := range results {
		if i == 5 {
			break
		}
		log.Printf("  %d. %s → %.5f", i+1, r.Candidate, r.ValLoss)
	}
}
