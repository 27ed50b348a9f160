package nn

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Dataset pairs inputs with scalar targets.
type Dataset struct {
	X *Tensor
	Y []float32
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return d.X.Rows }

// Check panics if X and Y disagree on length.
func (d *Dataset) Check() {
	if len(d.Y) != d.X.Rows {
		panic(fmt.Sprintf("nn: dataset has %d targets for %d rows", len(d.Y), d.X.Rows))
	}
}

// Split partitions the dataset into two parts with the first containing
// frac of the (shuffled) samples. Used for the paper's 80/20 splits.
func (d *Dataset) Split(frac float64, rng *xrand.RNG) (a, b *Dataset) {
	d.Check()
	perm := rng.Perm(d.Len())
	k := int(frac * float64(d.Len()))
	ai, bi := perm[:k], perm[k:]
	a = &Dataset{X: d.X.Gather(ai), Y: gather(d.Y, ai)}
	b = &Dataset{X: d.X.Gather(bi), Y: gather(d.Y, bi)}
	return a, b
}

func gather(y []float32, idx []int) []float32 {
	out := make([]float32, len(idx))
	for i, j := range idx {
		out[i] = y[j]
	}
	return out
}

// History records per-epoch training progress.
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	// BestEpoch is the epoch (0-based) with the lowest validation loss;
	// the network holds that epoch's weights after Fit returns.
	BestEpoch int
	// Stopped reports whether early stopping triggered before MaxEpochs.
	Stopped bool
}

// Trainer runs mini-batch SGD with early stopping on validation loss,
// restoring the best weights afterwards (the paper trains "for up to 120
// epochs with early stopping if validation loss ceased to improve").
type Trainer struct {
	Net       *Sequential
	Loss      Loss
	Opt       *SGD
	BatchSize int
	MaxEpochs int
	// Patience is how many epochs validation loss may fail to improve
	// before stopping. Zero means 10.
	Patience int
	// Logf, when non-nil, receives one line per epoch.
	Logf func(format string, args ...any)
}

// Fit trains the network and returns the history. val may be nil, in which
// case training loss drives early stopping.
func (t *Trainer) Fit(train, val *Dataset, rng *xrand.RNG) History {
	train.Check()
	if val != nil {
		val.Check()
	}
	patience := t.Patience
	if patience == 0 {
		patience = 10
	}
	bs := t.BatchSize
	if bs < 2 {
		bs = 32
	}

	var hist History
	best := math.Inf(1)
	bad := 0
	var bestState *State

	idx := make([]int, train.Len())
	for i := range idx {
		idx[i] = i
	}

	for epoch := 0; epoch < t.MaxEpochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var epochLoss float64
		var batches int
		for lo := 0; lo+2 <= train.Len(); lo += bs {
			hi := lo + bs
			if hi > train.Len() {
				hi = train.Len()
			}
			if hi-lo < 2 {
				break // BatchNorm needs at least 2 rows
			}
			bidx := idx[lo:hi]
			x := train.X.Gather(bidx)
			y := gather(train.Y, bidx)

			t.Net.ZeroGrad()
			pred := t.Net.Forward(x, true)
			dpred := NewTensor(pred.Rows, 1)
			epochLoss += t.Loss.Eval(pred, y, dpred)
			batches++
			t.Net.Backward(dpred)
			t.Opt.Step(t.Net.Params())
		}
		if batches > 0 {
			epochLoss /= float64(batches)
		}
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)

		monitored := epochLoss
		if val != nil {
			monitored = t.Evaluate(val)
			hist.ValLoss = append(hist.ValLoss, monitored)
		}
		if t.Logf != nil {
			t.Logf("epoch %3d: train=%.5f val=%.5f", epoch, epochLoss, monitored)
		}
		if monitored < best-1e-9 {
			best = monitored
			hist.BestEpoch = epoch
			bad = 0
			st := t.Net.ExportState()
			bestState = &st
		} else {
			bad++
			if bad >= patience {
				hist.Stopped = true
				break
			}
		}
	}
	if bestState != nil {
		if err := t.Net.ImportState(*bestState); err != nil {
			panic(err) // same network; cannot mismatch
		}
	}
	return hist
}

// Evaluate returns the mean loss over a dataset in eval mode.
func (t *Trainer) Evaluate(d *Dataset) float64 {
	d.Check()
	pred := t.Net.Forward(d.X, false)
	dpred := NewTensor(pred.Rows, 1) // gradient discarded
	return t.Loss.Eval(pred, d.Y, dpred)
}
