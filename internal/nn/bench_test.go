package nn

import (
	"testing"

	"repro/internal/xrand"
)

// benchNet builds the paper's background-network shape.
func benchNet() *Sequential {
	rng := xrand.New(1)
	return NewSequential(
		NewBatchNorm1D(13), NewLinear(13, 256, rng), NewReLU(),
		NewBatchNorm1D(256), NewLinear(256, 128, rng), NewReLU(),
		NewBatchNorm1D(128), NewLinear(128, 64, rng), NewReLU(),
		NewBatchNorm1D(64), NewLinear(64, 1, rng),
	)
}

// sink keeps benchmarked results live so the compiler cannot drop the call.
var sink *Tensor

func BenchmarkForwardBatch597(b *testing.B) {
	// The paper's FPGA workload: one background-net pass over 597 rings.
	net := benchNet()
	x := randTensor(597, 13, xrand.New(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = net.Forward(x, false)
	}
}

func BenchmarkForwardSingle(b *testing.B) {
	net := benchNet()
	x := randTensor(1, 13, xrand.New(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = net.Forward(x, false)
	}
}

// BenchmarkLinearForward times the background net's widest layer,
// Linear(256→128), over one burst shard (462 rows): the active
// linearForward (the SIMD kernel on amd64) and the portable dot loop.
func BenchmarkLinearForward(b *testing.B) {
	rng := xrand.New(5)
	l := NewLinear(256, 128, rng)
	x := randTensor(462, 256, rng)
	y := NewTensor(462, 128)
	for _, impl := range []struct {
		name string
		f    func(y, x *Tensor, w, b []float32)
	}{{"kernel", linearForward}, {"generic", linearForwardGeneric}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				impl.f(y, x, l.Weight.W, l.Bias.W)
			}
			sink = y
		})
	}
}

func BenchmarkTrainStep(b *testing.B) {
	net := benchNet()
	rng := xrand.New(4)
	x := randTensor(256, 13, rng)
	y := make([]float32, 256)
	for i := range y {
		if i%2 == 0 {
			y[i] = 1
		}
	}
	loss := BCEWithLogits{}
	opt := NewSGD(1e-3, 0.9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		pred := net.Forward(x, true)
		dpred := NewTensor(pred.Rows, 1)
		loss.Eval(pred, y, dpred)
		net.Backward(dpred)
		opt.Step(net.Params())
	}
}
