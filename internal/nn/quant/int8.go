package quant

import (
	"fmt"

	"repro/internal/nn"
)

// Int8Layer is one fused integer layer: int8 weights, int32 bias in the
// accumulator scale, and a fixed-point requantization to the next layer's
// int8 activation grid. The final layer of a network skips requantization
// and instead dequantizes its accumulator to a float logit.
type Int8Layer struct {
	In, Out int
	W       []int8 // Out×In row-major
	Bias    []int32
	ReLU    bool

	InZero   int32   // zero point of the incoming activations
	OutZero  int32   // zero point of the outgoing activations
	M0       int32   // requant multiplier mantissa (per-tensor mode)
	Shift    uint    // requant multiplier shift (per-tensor mode)
	DeqScale float32 // s_in·s_w, for final-layer logit dequantization
	Final    bool

	// Per-channel mode: when PerChannel is true, each output row o has its
	// own weight scale, so requantization (or final dequantization) uses
	// the per-row entries below instead of M0/Shift/DeqScale.
	PerChannel bool
	M0s        []int32
	Shifts     []uint
	DeqScales  []float32
}

// Int8Net is a fully integer inference network for a single-output model.
type Int8Net struct {
	Input  QParams // quantization of the float input features
	Layers []Int8Layer

	// biasAdj and panels cache the batched path's derived state (see
	// gemm.go): each layer's zero-point-folded biases and its packed int16
	// weight panels. Populated by Prepare; nil means derive per call. Gob
	// skips unexported fields, so neither is ever serialized.
	biasAdj [][]int64
	panels  [][]int16
}

// Convert turns a QAT-trained network (a Sequential of *QATLinear built by
// FuseForQuant, with observers populated by training) into an integer
// network. The final QATLinear becomes a logit-producing layer with no
// activation requantization.
func Convert(net *nn.Sequential) (*Int8Net, error) {
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("quant: empty network")
	}
	out := &Int8Net{}
	var inQP QParams
	for i, l := range net.Layers {
		q, ok := l.(*QATLinear)
		if !ok {
			return nil, fmt.Errorf("quant: layer %d is %s, want QATLinear", i, l)
		}
		if i == 0 {
			if !q.InObs.Ready() {
				return nil, fmt.Errorf("quant: input observer never saw data; run QAT first")
			}
			inQP = q.InObs.QParams()
			out.Input = inQP
		}
		il := Int8Layer{
			In: q.Lin.In, Out: q.Lin.Out,
			W:          make([]int8, len(q.Lin.Weight.W)),
			Bias:       make([]int32, len(q.Lin.Bias.W)),
			ReLU:       q.WithReLU,
			InZero:     inQP.Zero,
			PerChannel: q.PerChannel,
			Final:      i == len(net.Layers)-1,
		}
		var actQP QParams
		if !il.Final {
			if !q.ActObs.Ready() {
				return nil, fmt.Errorf("quant: layer %d activation observer never saw data", i)
			}
			actQP = q.ActObs.QParams()
			il.OutZero = actQP.Zero
		}
		if q.PerChannel {
			il.M0s = make([]int32, il.Out)
			il.Shifts = make([]uint, il.Out)
			il.DeqScales = make([]float32, il.Out)
			for o := 0; o < il.Out; o++ {
				row := q.Lin.Weight.W[o*il.In : (o+1)*il.In]
				wp := Symmetric(maxAbs(row))
				for j, w := range row {
					il.W[o*il.In+j] = wp.Quantize(w)
				}
				accScale := inQP.Scale * wp.Scale
				il.Bias[o] = int32(roundf(q.Lin.Bias.W[o] / accScale))
				il.DeqScales[o] = accScale
				if !il.Final {
					il.M0s[o], il.Shifts[o] = requantMultiplier(float64(accScale) / float64(actQP.Scale))
				}
			}
		} else {
			wp := Symmetric(maxAbs(q.Lin.Weight.W))
			for j, w := range q.Lin.Weight.W {
				il.W[j] = wp.Quantize(w)
			}
			accScale := inQP.Scale * wp.Scale
			il.DeqScale = accScale
			for j, b := range q.Lin.Bias.W {
				il.Bias[j] = int32(roundf(b / accScale))
			}
			if !il.Final {
				il.M0, il.Shift = requantMultiplier(float64(accScale) / float64(actQP.Scale))
			}
		}
		if !il.Final {
			inQP = actQP
		}
		out.Layers = append(out.Layers, il)
	}
	out.Prepare()
	return out, nil
}

func roundf(x float32) float32 {
	if x >= 0 {
		return float32(int64(x + 0.5))
	}
	return float32(int64(x - 0.5))
}

// Logit runs integer inference on one feature vector and returns the float
// logit (pre-sigmoid). Apply a threshold in logit space to classify, as the
// paper's FPGA deployment does.
func (n *Int8Net) Logit(features []float32) float32 {
	if len(n.Layers) == 0 {
		panic("quant: empty Int8Net")
	}
	if len(features) != n.Layers[0].In {
		panic(fmt.Sprintf("quant: Int8Net expects %d features, got %d", n.Layers[0].In, len(features)))
	}
	x := make([]int8, len(features))
	for i, f := range features {
		x[i] = n.Input.Quantize(f)
	}
	var logit float32
	for li := range n.Layers {
		l := &n.Layers[li]
		y := make([]int8, l.Out)
		for o := 0; o < l.Out; o++ {
			acc := int64(l.Bias[o])
			wr := l.W[o*l.In : (o+1)*l.In]
			for i, xi := range x {
				acc += int64(int32(xi)-l.InZero) * int64(wr[i])
			}
			if l.Final {
				if l.PerChannel {
					logit = float32(acc) * l.DeqScales[o]
				} else {
					logit = float32(acc) * l.DeqScale
				}
				continue
			}
			var q int8
			if l.PerChannel {
				q = requantize(acc, l.M0s[o], l.Shifts[o], l.OutZero)
			} else {
				q = requantize(acc, l.M0, l.Shift, l.OutZero)
			}
			if l.ReLU && int32(q) < l.OutZero {
				q = clampInt8(l.OutZero)
			}
			y[o] = q
		}
		if l.Final {
			if l.Out != 1 {
				panic("quant: final layer must have a single output")
			}
			return logit
		}
		x = y
	}
	return logit
}

// Prob runs integer inference and applies the float sigmoid, for
// comparisons against the FP32 model. The deployed path uses Logit with a
// pre-computed logit-domain threshold instead.
func (n *Int8Net) Prob(features []float32) float32 {
	return nn.Sigmoid(n.Logit(features))
}

// NumWeightBytes returns the weight storage in bytes (int8 per weight),
// for the resource comparison against FP32 (4 bytes per weight).
func (n *Int8Net) NumWeightBytes() int {
	total := 0
	for _, l := range n.Layers {
		total += len(l.W) + 4*len(l.Bias)
	}
	return total
}
