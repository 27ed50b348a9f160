package nn

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Param is one learnable parameter array with its gradient accumulator.
type Param struct {
	Name string
	W    []float32 // values
	G    []float32 // gradient of the loss w.r.t. W, same length
}

// Layer is one differentiable stage of a network. Forward must cache
// whatever Backward needs; Backward consumes the gradient w.r.t. the
// layer's output and returns the gradient w.r.t. its input, accumulating
// parameter gradients into Params().G.
type Layer interface {
	// Forward computes the layer output. train toggles training-time
	// behaviour (batch statistics, observer updates).
	Forward(x *Tensor, train bool) *Tensor
	// Backward propagates gradients; must be called after a training-mode
	// Forward with a dout of the same shape as that Forward's output.
	Backward(dout *Tensor) *Tensor
	// Params returns the learnable parameters (nil for stateless layers).
	Params() []*Param
	// String describes the layer for architecture dumps.
	String() string
}

// Linear is a fully-connected layer: y = x·Wᵀ + b, with W stored [Out][In]
// row-major.
type Linear struct {
	In, Out int
	Weight  *Param // len Out*In
	Bias    *Param // len Out

	x *Tensor // cached input
}

// NewLinear creates a fully-connected layer with Kaiming-uniform
// initialization (the PyTorch default for Linear feeding ReLU).
func NewLinear(in, out int, rng *xrand.RNG) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: &Param{Name: fmt.Sprintf("linear%dx%d.weight", in, out), W: make([]float32, in*out), G: make([]float32, in*out)},
		Bias:   &Param{Name: fmt.Sprintf("linear%dx%d.bias", in, out), W: make([]float32, out), G: make([]float32, out)},
	}
	bound := float32(1 / math.Sqrt(float64(in)))
	for i := range l.Weight.W {
		l.Weight.W[i] = float32(rng.Uniform(-float64(bound), float64(bound)))
	}
	for i := range l.Bias.W {
		l.Bias.W[i] = float32(rng.Uniform(-float64(bound), float64(bound)))
	}
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x *Tensor, train bool) *Tensor {
	if x.Cols != l.In {
		panic(fmt.Sprintf("nn: Linear expects %d inputs, got %d", l.In, x.Cols))
	}
	if train {
		l.x = x
	}
	y := NewTensor(x.Rows, l.Out)
	linearForward(y, x, l.Weight.W, l.Bias.W)
	return y
}

// linearForwardGeneric computes y = x·Wᵀ + b, W stored [len(b)][x.Cols]
// row-major, with one dot per (row, output). It is the portable
// linearForward and the reference the SIMD kernel is differential-tested
// against (TestLinearForwardMatchesGeneric, FuzzLinearForward).
func linearForwardGeneric(y, x *Tensor, w, b []float32) {
	in := x.Cols
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		for o := range yr {
			yr[o] = dot(xr, w[o*in:(o+1)*in]) + b[o]
		}
	}
}

// dot computes Σ a[i]*b[i] with 4-way unrolling; a and b must have equal
// length. Four independent accumulators let the scalar pipeline overlap the
// multiply-add chains.
func dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a) &^ 3
	b = b[:len(a)] // eliminate bounds checks in the loop
	for i := 0; i < n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for i := n; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// axpy computes y[i] += k*x[i].
func axpy(k float32, x, y []float32) {
	y = y[:len(x)]
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		y[i] += k * x[i]
		y[i+1] += k * x[i+1]
		y[i+2] += k * x[i+2]
		y[i+3] += k * x[i+3]
	}
	for i := n; i < len(x); i++ {
		y[i] += k * x[i]
	}
}

// Backward implements Layer.
func (l *Linear) Backward(dout *Tensor) *Tensor {
	x := l.x
	if x == nil {
		panic("nn: Linear.Backward before training-mode Forward")
	}
	dx := NewTensor(x.Rows, l.In)
	w := l.Weight.W
	for r := 0; r < x.Rows; r++ {
		xr, dr, dxr := x.Row(r), dout.Row(r), dx.Row(r)
		for o := 0; o < l.Out; o++ {
			g := dr[o]
			if g == 0 {
				continue
			}
			axpy(g, xr, l.Weight.G[o*l.In:(o+1)*l.In])
			axpy(g, w[o*l.In:(o+1)*l.In], dxr)
			l.Bias.G[o] += g
		}
	}
	return dx
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// String implements Layer.
func (l *Linear) String() string { return fmt.Sprintf("Linear(%d→%d)", l.In, l.Out) }

// BatchNorm1D normalizes each feature over the batch (training) or with
// running statistics (inference), then applies a learned affine transform.
type BatchNorm1D struct {
	Dim      int
	Gamma    *Param
	Beta     *Param
	RunMean  []float32
	RunVar   []float32
	Momentum float32
	Eps      float32

	// caches
	xhat   *Tensor
	invStd []float32
}

// NewBatchNorm1D creates a batch-norm layer over dim features.
func NewBatchNorm1D(dim int) *BatchNorm1D {
	b := &BatchNorm1D{
		Dim:      dim,
		Gamma:    &Param{Name: fmt.Sprintf("bn%d.gamma", dim), W: make([]float32, dim), G: make([]float32, dim)},
		Beta:     &Param{Name: fmt.Sprintf("bn%d.beta", dim), W: make([]float32, dim), G: make([]float32, dim)},
		RunMean:  make([]float32, dim),
		RunVar:   make([]float32, dim),
		Momentum: 0.1,
		Eps:      1e-5,
	}
	for i := range b.Gamma.W {
		b.Gamma.W[i] = 1
		b.RunVar[i] = 1
	}
	return b
}

// Forward implements Layer.
func (b *BatchNorm1D) Forward(x *Tensor, train bool) *Tensor {
	if x.Cols != b.Dim {
		panic(fmt.Sprintf("nn: BatchNorm1D expects %d features, got %d", b.Dim, x.Cols))
	}
	y := NewTensor(x.Rows, x.Cols)
	if !train {
		// Row-major walk over x and y, with inv computed once per column.
		// inv stays on the stack up to 256 columns, the paper nets' widest.
		d := b.Dim
		var stack [256]float32
		inv := stack[:0]
		for c := 0; c < d; c++ {
			inv = append(inv, float32(1/math.Sqrt(float64(b.RunVar[c]+b.Eps))))
		}
		g, bt, mu := b.Gamma.W[:d], b.Beta.W[:d], b.RunMean[:d]
		for r := 0; r < x.Rows; r++ {
			xr, yr := x.Data[r*d:(r+1)*d], y.Data[r*d:(r+1)*d]
			for c, v := range xr {
				yr[c] = (v-mu[c])*inv[c]*g[c] + bt[c]
			}
		}
		return y
	}
	if x.Rows < 2 {
		panic("nn: BatchNorm1D training batch must have >= 2 rows")
	}
	n := float32(x.Rows)
	b.xhat = NewTensor(x.Rows, x.Cols)
	if cap(b.invStd) < b.Dim {
		b.invStd = make([]float32, b.Dim)
	}
	b.invStd = b.invStd[:b.Dim]
	for c := 0; c < b.Dim; c++ {
		var mean float32
		for r := 0; r < x.Rows; r++ {
			mean += x.At(r, c)
		}
		mean /= n
		var v float32
		for r := 0; r < x.Rows; r++ {
			d := x.At(r, c) - mean
			v += d * d
		}
		v /= n // biased variance, as in PyTorch's normalization path
		inv := float32(1 / math.Sqrt(float64(v+b.Eps)))
		b.invStd[c] = inv
		for r := 0; r < x.Rows; r++ {
			xh := (x.At(r, c) - mean) * inv
			b.xhat.Set(r, c, xh)
			y.Set(r, c, xh*b.Gamma.W[c]+b.Beta.W[c])
		}
		// Running stats use the unbiased variance, matching PyTorch.
		unbiased := v * n / (n - 1)
		b.RunMean[c] = (1-b.Momentum)*b.RunMean[c] + b.Momentum*mean
		b.RunVar[c] = (1-b.Momentum)*b.RunVar[c] + b.Momentum*unbiased
	}
	return y
}

// Backward implements Layer.
func (b *BatchNorm1D) Backward(dout *Tensor) *Tensor {
	xh := b.xhat
	if xh == nil {
		panic("nn: BatchNorm1D.Backward before training-mode Forward")
	}
	n := float32(xh.Rows)
	dx := NewTensor(xh.Rows, xh.Cols)
	for c := 0; c < b.Dim; c++ {
		var sumD, sumDXh float32
		for r := 0; r < xh.Rows; r++ {
			d := dout.At(r, c)
			sumD += d
			sumDXh += d * xh.At(r, c)
		}
		b.Beta.G[c] += sumD
		b.Gamma.G[c] += sumDXh
		g := b.Gamma.W[c]
		inv := b.invStd[c]
		for r := 0; r < xh.Rows; r++ {
			d := dout.At(r, c)
			dx.Set(r, c, g*inv/n*(n*d-sumD-xh.At(r, c)*sumDXh))
		}
	}
	return dx
}

// Params implements Layer.
func (b *BatchNorm1D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// String implements Layer.
func (b *BatchNorm1D) String() string { return fmt.Sprintf("BatchNorm1D(%d)", b.Dim) }

// NumBuffers implements BufferLayer.
func (b *BatchNorm1D) NumBuffers() int { return 2 }

// ExportBuffers implements BufferLayer: [RunMean, RunVar], the order the
// serializer has always used for batch-norm state.
func (b *BatchNorm1D) ExportBuffers() [][]float32 {
	return [][]float32{
		append([]float32(nil), b.RunMean...),
		append([]float32(nil), b.RunVar...),
	}
}

// ImportBuffers implements BufferLayer.
func (b *BatchNorm1D) ImportBuffers(bufs [][]float32) error {
	if len(bufs) != 2 {
		return fmt.Errorf("batch-norm expects 2 buffers, got %d", len(bufs))
	}
	if len(bufs[0]) != b.Dim || len(bufs[1]) != b.Dim {
		return fmt.Errorf("batch-norm buffer length mismatch: %d/%d vs dim %d", len(bufs[0]), len(bufs[1]), b.Dim)
	}
	copy(b.RunMean, bufs[0])
	copy(b.RunVar, bufs[1])
	return nil
}

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (a *ReLU) Forward(x *Tensor, train bool) *Tensor {
	y := NewTensor(x.Rows, x.Cols)
	if !train {
		for i, v := range x.Data {
			// Keep v when v > 0, else +0. As an unsigned integer, v's bits
			// are at most +Inf's exactly when the sign is clear and v is
			// not NaN: v > 0, or +0, which maps to itself. The shift turns
			// that compare into a mask, so no branch depends on the data.
			u := math.Float32bits(v)
			y.Data[i] = math.Float32frombits(u & uint32((int64(u)-0x7F800001)>>63))
		}
		return y
	}
	if cap(a.mask) < len(x.Data) {
		a.mask = make([]bool, len(x.Data))
	}
	a.mask = a.mask[:len(x.Data)]
	for i, v := range x.Data {
		pos := v > 0
		if pos {
			y.Data[i] = v
		}
		a.mask[i] = pos
	}
	return y
}

// Backward implements Layer.
func (a *ReLU) Backward(dout *Tensor) *Tensor {
	dx := NewTensor(dout.Rows, dout.Cols)
	for i, d := range dout.Data {
		if a.mask[i] {
			dx.Data[i] = d
		}
	}
	return dx
}

// Params implements Layer.
func (a *ReLU) Params() []*Param { return nil }

// String implements Layer.
func (a *ReLU) String() string { return "ReLU" }
