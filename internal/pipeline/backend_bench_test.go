package pipeline

import (
	"fmt"
	"testing"

	"repro/internal/nn"
	"repro/internal/nn/quant"
	"repro/internal/xrand"
)

// benchClassifiers builds both backends over one background-net-shaped
// network (13→256→128→64→1, the paper's architecture) so their per-batch
// inference cost is directly comparable. The FP32 classifier wraps the
// unfused original; the int8 backend is its converted Int8Net.
func benchClassifiers(b *testing.B) (map[string]BkgClassifier, *nn.Tensor) {
	b.Helper()
	rng := xrand.New(41)
	net := nn.NewSequential(
		nn.NewLinear(13, 256, rng), nn.NewBatchNorm1D(256), nn.NewReLU(),
		nn.NewLinear(256, 128, rng), nn.NewBatchNorm1D(128), nn.NewReLU(),
		nn.NewLinear(128, 64, rng), nn.NewBatchNorm1D(64), nn.NewReLU(),
		nn.NewLinear(64, 1, rng),
	)
	fused, err := quant.FuseForQuant(net)
	if err != nil {
		b.Fatal(err)
	}
	x := nn.NewTensor(512, 13)
	for i := range x.Data {
		x.Data[i] = float32(rng.Gaussian(0, 1))
	}
	for _, l := range fused.Layers {
		l.(*quant.QATLinear).Enabled = false
	}
	warm := &nn.Trainer{Net: fused, Loss: nn.BCEWithLogits{}, Opt: nn.NewSGD(0, 0), BatchSize: 128, MaxEpochs: 1, Patience: 5}
	warm.Fit(&nn.Dataset{X: x, Y: make([]float32, x.Rows)}, nil, rng)
	int8net, err := quant.Convert(fused)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]BkgClassifier{
		string(BackendFloat32): FP32Classifier{Net: net},
		string(BackendInt8):    int8net,
	}, x
}

// sinkProbs keeps benchmarked results live so the compiler cannot drop the
// call.
var sinkProbs []float32

// BenchmarkBackendBatch measures backend-generic inference per batch size —
// the numbers behind the EXPERIMENTS.md backend table. On amd64 the float32
// Linear kernel works on blocks of four rows, so a single row takes its
// scalar loop and int8 wins there; from batch 8 up float32 is faster.
func BenchmarkBackendBatch(b *testing.B) {
	classifiers, x := benchClassifiers(b)
	for _, batch := range []int{1, 8, 64, 512} {
		xb := nn.NewTensor(batch, x.Cols)
		copy(xb.Data, x.Data[:batch*x.Cols])
		out := make([]float32, batch)
		for _, name := range []string{"float32", "int8"} {
			cls := classifiers[name]
			b.Run(fmt.Sprintf("backend=%s/batch=%d", name, batch), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ClassifierProbsInto(cls, xb, out)
				}
				sinkProbs = out
			})
		}
	}
}
