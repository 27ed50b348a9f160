package models

import (
	"math"
	"sort"

	"repro/internal/datagen"
	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/nn/quant"
	"repro/internal/xrand"
)

// TrainOptions configures Train. The default hyperparameters are the
// paper's chosen values (§III): background network batch 4096 / lr 5.204e-4,
// dEta network batch 256 / lr 4.375e-3, SGD, up to 120 epochs with early
// stopping.
type TrainOptions struct {
	Seed      uint64
	WithPolar bool
	MaxEpochs int
	Patience  int
	BkgBatch  int
	BkgLR     float64
	DEtaBatch int
	DEtaLR    float64
	Momentum  float64
	// DEtaLoss selects the dEta regression loss; nil means nn.MSE (the
	// paper's ℓ₂). nn.Huber is provided for the robustness ablation.
	DEtaLoss nn.Loss
	// FalseRejectCost weights discarded GRB rings in threshold selection;
	// zero means DefaultFalseRejectCost.
	FalseRejectCost float64
	Logf            func(format string, args ...any)
	// Swapped builds the background net in the fusion-friendly layer order
	// (Linear→BN→ReLU), used as the FP32 starting point for quantization.
	Swapped bool
}

// DefaultTrainOptions returns the paper's hyperparameters with polar-angle
// input enabled.
func DefaultTrainOptions(seed uint64) TrainOptions {
	return TrainOptions{
		Seed:      seed,
		WithPolar: true,
		MaxEpochs: 120,
		Patience:  10,
		BkgBatch:  4096,
		BkgLR:     5.204e-4,
		DEtaBatch: 256,
		DEtaLR:    4.375e-3,
		Momentum:  0.9,
	}
}

// Bundle is the trained model pair plus everything inference needs.
type Bundle struct {
	Bkg       *nn.Sequential
	DEta      *nn.Sequential
	BkgNorm   *features.Normalizer
	DEtaNorm  *features.Normalizer
	Thr       *Thresholds
	WithPolar bool
	// DEtaScale calibrates the network output into a Gaussian width:
	// dη = DEtaScale · exp(prediction). The network regresses ln|Δη|, and
	// for a Gaussian residual the conditional mean of ln|Δη| sits below
	// ln σ (E[ln|x/σ|] ≈ −0.635), so the raw exp(prediction) is an
	// overconfident width. The scale is fitted on held-out data so that the
	// median standardized residual matches the Gaussian median (0.6745).
	DEtaScale float64
	// BkgTestAcc and DEtaTestMSE record held-out performance at training
	// time, for reporting.
	BkgTestAcc  float64
	DEtaTestMSE float64
	// Int8 is the quantized background network produced by
	// QuantizeBackground (adapttrain -quantize); nil for an unquantized
	// bundle. The int8 inference backend requires it. It shares the
	// bundle's BkgNorm and Thr: quantization changes the arithmetic, not
	// the feature pipeline or the decision thresholds.
	Int8 *quant.Int8Net
}

// Train generates the paper's training protocol from a labeled ring set:
// 80/20 train/test split, the training set further split 80/20
// train/validation, early stopping on validation loss, then per-polar-bin
// threshold selection on the training set.
func Train(set *datagen.Set, opts TrainOptions) *Bundle {
	opts = fillDefaults(opts)
	rng := xrand.New(opts.Seed)

	if opts.Logf != nil {
		in := features.NumFeaturesNoPolar
		if opts.WithPolar {
			in = features.NumFeatures
		}
		opts.Logf("%s", describeWidths("background net", in, BackgroundWidths))
		opts.Logf("%s", describeWidths("dEta net", in, DEtaWidths))
	}
	b := &Bundle{WithPolar: opts.WithPolar}

	// ----- Background network -----
	bkgAll := datagen.BackgroundDataset(set, opts.WithPolar)
	polars := datagen.PolarBins(set)
	// Keep polar guesses aligned with the split by splitting indices once.
	trainIdx, testIdx := splitIdx(bkgAll.Len(), 0.8, rng)
	bkgTrain := subset(bkgAll, trainIdx)
	bkgTest := subset(bkgAll, testIdx)
	b.BkgNorm = features.FitNormalizer(bkgTrain.X)
	b.BkgNorm.Apply(bkgTrain.X)
	b.BkgNorm.Apply(bkgTest.X)

	trIdx2, valIdx2 := splitIdx(bkgTrain.Len(), 0.8, rng)
	bkgTr := subset(bkgTrain, trIdx2)
	bkgVal := subset(bkgTrain, valIdx2)

	in := bkgAll.X.Cols
	if opts.Swapped {
		b.Bkg = NewBackgroundNetSwapped(in, rng.Split(1))
	} else {
		b.Bkg = NewBackgroundNet(in, rng.Split(1))
	}
	tr := &nn.Trainer{
		Net:       b.Bkg,
		Loss:      nn.BCEWithLogits{},
		Opt:       nn.NewSGD(opts.BkgLR, opts.Momentum),
		BatchSize: clampBatch(opts.BkgBatch, bkgTr.Len()),
		MaxEpochs: opts.MaxEpochs,
		Patience:  opts.Patience,
		Logf:      prefixed(opts.Logf, "bkg"),
	}
	tr.Fit(bkgTr, bkgVal, rng.Split(2))

	// Threshold selection on the full training split (paper: chosen to
	// minimize training loss per bin).
	trainProbs := b.Bkg.PredictProbs(bkgTrain.X)
	trainPolar := gatherF64(polars, trainIdx)
	b.Thr = FitThresholds(trainProbs, bkgTrain.Y, trainPolar, opts.FalseRejectCost)

	testProbs := b.Bkg.PredictProbs(bkgTest.X)
	b.BkgTestAcc = Accuracy(testProbs, bkgTest.Y, gatherF64(polars, testIdx), b.Thr)

	// ----- dEta network -----
	deAll := datagen.DEtaDataset(set, opts.WithPolar)
	dTrainIdx, dTestIdx := splitIdx(deAll.Len(), 0.8, rng)
	deTrain := subset(deAll, dTrainIdx)
	deTest := subset(deAll, dTestIdx)
	b.DEtaNorm = features.FitNormalizer(deTrain.X)
	b.DEtaNorm.Apply(deTrain.X)
	b.DEtaNorm.Apply(deTest.X)
	dTr, dVal := deTrain.Split(0.8, rng.Split(3))

	dLoss := opts.DEtaLoss
	if dLoss == nil {
		dLoss = nn.MSE{}
	}
	b.DEta = NewDEtaNet(in, rng.Split(4))
	dtr := &nn.Trainer{
		Net:       b.DEta,
		Loss:      dLoss,
		Opt:       nn.NewSGD(opts.DEtaLR, opts.Momentum),
		BatchSize: clampBatch(opts.DEtaBatch, dTr.Len()),
		MaxEpochs: opts.MaxEpochs,
		Patience:  opts.Patience,
		Logf:      prefixed(opts.Logf, "deta"),
	}
	dtr.Fit(dTr, dVal, rng.Split(5))
	b.DEtaTestMSE = dtr.Evaluate(deTest)
	b.DEtaScale = calibrateDEtaScale(b.DEta, deTest)

	return b
}

// calibrateDEtaScale fits the width calibration factor on held-out data:
// with r_i = |Δη|_i / exp(pred_i), a correctly scaled Gaussian width s·exp(
// pred) satisfies median(|Δη|/(s·exp(pred))) = 0.6745, so s = median(r)/0.6745.
func calibrateDEtaScale(net *nn.Sequential, test *nn.Dataset) float64 {
	if test.Len() == 0 {
		return 1
	}
	pred := net.Predict(test.X)
	ratios := make([]float64, test.Len())
	for i := range ratios {
		// Targets are ln|Δη|; predictions are the network's ln dη.
		ratios[i] = math.Exp(float64(test.Y[i]) - float64(pred.Data[i]))
	}
	sort.Float64s(ratios)
	med := ratios[len(ratios)/2]
	const gaussianMedianAbs = 0.674489750196082
	s := med / gaussianMedianAbs
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return 1
	}
	return s
}

// fillDefaults replaces unset (zero) hyperparameters with the paper's
// values, leaving explicitly set fields alone.
func fillDefaults(opts TrainOptions) TrainOptions {
	def := DefaultTrainOptions(opts.Seed)
	if opts.MaxEpochs == 0 {
		opts.MaxEpochs = def.MaxEpochs
	}
	if opts.Patience == 0 {
		opts.Patience = def.Patience
	}
	if opts.BkgBatch == 0 {
		opts.BkgBatch = def.BkgBatch
	}
	if opts.BkgLR == 0 {
		opts.BkgLR = def.BkgLR
	}
	if opts.DEtaBatch == 0 {
		opts.DEtaBatch = def.DEtaBatch
	}
	if opts.DEtaLR == 0 {
		opts.DEtaLR = def.DEtaLR
	}
	if opts.Momentum == 0 {
		opts.Momentum = def.Momentum
	}
	return opts
}

func clampBatch(b, n int) int {
	if b > n/2 && n >= 4 {
		b = n / 2
	}
	if b < 2 {
		b = 2
	}
	return b
}

func prefixed(logf func(string, ...any), tag string) func(string, ...any) {
	if logf == nil {
		return nil
	}
	return func(format string, args ...any) {
		logf("["+tag+"] "+format, args...)
	}
}

func splitIdx(n int, frac float64, rng *xrand.RNG) (a, b []int) {
	perm := rng.Perm(n)
	k := int(frac * float64(n))
	return perm[:k], perm[k:]
}

func subset(d *nn.Dataset, idx []int) *nn.Dataset {
	y := make([]float32, len(idx))
	for i, j := range idx {
		y[i] = d.Y[j]
	}
	return &nn.Dataset{X: d.X.Gather(idx), Y: y}
}

func gatherF64(xs []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = xs[j]
	}
	return out
}
