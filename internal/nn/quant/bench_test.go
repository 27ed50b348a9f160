package quant

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/xrand"
)

// Package-level sinks keep benchmarked results live so the compiler cannot
// drop the call.
var (
	sinkLogit  float32
	sinkLogits []float32
	sinkAcc    []int32
)

// benchInt8 builds a quantized network of the paper's background-net shape
// and returns it with its float original and a 512×13 feature batch.
func benchInt8(tb testing.TB) (*Int8Net, *nn.Sequential, *nn.Tensor) {
	tb.Helper()
	rng := xrand.New(1)
	net := nn.NewSequential(
		nn.NewLinear(13, 256, rng), nn.NewBatchNorm1D(256), nn.NewReLU(),
		nn.NewLinear(256, 128, rng), nn.NewBatchNorm1D(128), nn.NewReLU(),
		nn.NewLinear(128, 64, rng), nn.NewBatchNorm1D(64), nn.NewReLU(),
		nn.NewLinear(64, 1, rng),
	)
	fused, err := FuseForQuant(net)
	if err != nil {
		tb.Fatal(err)
	}
	x := nn.NewTensor(512, 13)
	for i := range x.Data {
		x.Data[i] = float32(rng.Gaussian(0, 1))
	}
	for _, l := range fused.Layers {
		l.(*QATLinear).Enabled = false
	}
	warm := &nn.Trainer{Net: fused, Loss: nn.BCEWithLogits{}, Opt: nn.NewSGD(0, 0), BatchSize: 128, MaxEpochs: 1, Patience: 5}
	warm.Fit(&nn.Dataset{X: x, Y: make([]float32, 512)}, nil, rng)
	for _, l := range fused.Layers {
		l.(*QATLinear).Enabled = true
	}
	int8net, err := Convert(fused)
	if err != nil {
		tb.Fatal(err)
	}
	return int8net, net, x
}

func BenchmarkInt8Logit(b *testing.B) {
	int8net, _, x := benchInt8(b)
	row := x.Row(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLogit = int8net.Logit(row)
	}
}

// BenchmarkInt8Batch512 times batched inference of 512 rows, the size the
// perfbench int8 per-row metric uses, with the per-call scratch in allocs.
func BenchmarkInt8Batch512(b *testing.B) {
	int8net, _, x := benchInt8(b)
	out := make([]float32, x.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		int8net.LogitsInto(x, out)
	}
	sinkLogits = out
}

func BenchmarkFP32Single(b *testing.B) {
	_, net, xb := benchInt8(b)
	x := nn.FromRows([][]float32{xb.Row(0)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x, false)
	}
}
