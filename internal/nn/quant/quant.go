// Package quant implements post-training INT8 quantization of the nn
// networks, mirroring the paper's §V study: quantization-aware training
// (QAT) with fused Linear+BatchNorm+ReLU blocks, per-tensor affine
// quantization of activations, per-tensor symmetric quantization of weights,
// and an integer-only inference path (int8 × int8 → int32 accumulate,
// fixed-point requantization) equivalent to PyTorch's 'x86' eager-mode
// configuration in structure.
//
// The flow matches the paper:
//
//  1. retrain the background model with the block order reversed to
//     Linear→BN→ReLU so the three ops can fuse (§V "Methodology");
//  2. fold each BatchNorm into its Linear (FoldBN);
//  3. fine-tune with fake quantization (QATLinear, straight-through
//     estimator);
//  4. convert to an integer Net (Convert) whose final sigmoid is elided —
//     the classification threshold is applied in the logit domain instead
//     (§V "FPGA Deployment").
package quant

import (
	"fmt"
	"math"
)

// QParams maps float values x to int8 codes q = clamp(round(x/Scale) + Zero).
type QParams struct {
	Scale float32
	Zero  int32
}

// Quantize returns the int8 code for x.
func (p QParams) Quantize(x float32) int8 {
	q := int32(math.RoundToEven(float64(x/p.Scale))) + p.Zero
	return clampInt8(q)
}

// Dequantize returns the float value of code q.
func (p QParams) Dequantize(q int8) float32 {
	return p.Scale * float32(int32(q)-p.Zero)
}

// FakeQuantize rounds x through the int8 grid and back (quantize-dequantize),
// the QAT forward-path operation.
func (p QParams) FakeQuantize(x float32) float32 {
	return p.Dequantize(p.Quantize(x))
}

func clampInt8(q int32) int8 {
	if q < -128 {
		return -128
	}
	if q > 127 {
		return 127
	}
	return int8(q)
}

// Asymmetric chooses activation quantization parameters covering [min, max]
// with the zero point chosen so that 0.0 is exactly representable.
func Asymmetric(min, max float32) QParams {
	if min > 0 {
		min = 0
	}
	if max < 0 {
		max = 0
	}
	if max == min {
		max = min + 1e-6
	}
	scale := (max - min) / 255
	zero := int32(math.RoundToEven(float64(-min/scale))) - 128
	if zero < -128 {
		zero = -128
	}
	if zero > 127 {
		zero = 127
	}
	return QParams{Scale: scale, Zero: zero}
}

// Symmetric chooses weight quantization parameters with zero point 0
// covering [−maxAbs, maxAbs].
func Symmetric(maxAbs float32) QParams {
	if maxAbs == 0 {
		maxAbs = 1e-6
	}
	return QParams{Scale: maxAbs / 127, Zero: 0}
}

// Observer tracks the running min/max of a tensor across training batches,
// the MinMaxObserver of PyTorch's default QAT config.
type Observer struct {
	Min, Max float32
	seen     bool
}

// Update folds a batch of values into the running range.
func (o *Observer) Update(xs []float32) {
	for _, x := range xs {
		if !o.seen {
			o.Min, o.Max, o.seen = x, x, true
			continue
		}
		if x < o.Min {
			o.Min = x
		}
		if x > o.Max {
			o.Max = x
		}
	}
}

// Ready reports whether the observer has seen any data.
func (o *Observer) Ready() bool { return o.seen }

// QParams returns asymmetric parameters for the observed range.
func (o *Observer) QParams() QParams {
	if !o.seen {
		return QParams{Scale: 1, Zero: 0}
	}
	return Asymmetric(o.Min, o.Max)
}

// String implements fmt.Stringer.
func (o *Observer) String() string {
	return fmt.Sprintf("Observer[%.4g, %.4g]", o.Min, o.Max)
}

// Export returns the observer state as a flat buffer [min, max, seen] so it
// can ride in an nn.State buffer slot (see QATLinear.ExportBuffers).
func (o *Observer) Export() []float32 {
	seen := float32(0)
	if o.seen {
		seen = 1
	}
	return []float32{o.Min, o.Max, seen}
}

// Import restores state captured by Export.
func (o *Observer) Import(buf []float32) error {
	if len(buf) != 3 {
		return fmt.Errorf("quant: observer buffer has %d values, want 3", len(buf))
	}
	o.Min, o.Max, o.seen = buf[0], buf[1], buf[2] != 0
	return nil
}

// maxAbs returns max |x| over xs.
func maxAbs(xs []float32) float32 {
	var m float32
	for _, x := range xs {
		if x < 0 {
			x = -x
		}
		if x > m {
			m = x
		}
	}
	return m
}

// requantMultiplier decomposes a positive real multiplier M into a 31-bit
// fixed-point mantissa m0 and right-shift so that M ≈ m0 · 2^(−shift), the
// standard integer-only requantization form (Jacob et al. 2018, as used by
// PyTorch and TFLite kernels).
func requantMultiplier(m float64) (m0 int32, shift uint) {
	if m <= 0 {
		panic("quant: non-positive requant multiplier")
	}
	exp := 0
	frac := m
	for frac >= 1 {
		frac /= 2
		exp++
	}
	for frac < 0.5 {
		frac *= 2
		exp--
	}
	// frac ∈ [0.5, 1); mantissa in [2^30, 2^31).
	q := int64(math.RoundToEven(frac * (1 << 31)))
	if q == 1<<31 {
		q /= 2
		exp++
	}
	sh := 31 - exp
	if sh < 0 {
		panic("quant: requant multiplier too large")
	}
	return int32(q), uint(sh)
}

// requantize applies y = round(acc · m0 · 2^(−shift)) + zero with saturating
// int8 output, using only integer arithmetic and no branches. It is
// newRequantizer(m0, shift, zero).apply(acc); layers build the requantizer
// once and apply it to every output that shares its constants.
func requantize(acc int64, m0 int32, shift uint, zero int32) int8 {
	return newRequantizer(m0, shift, zero).apply(acc)
}

// requantizer holds requantize's constants for one (m0, shift, zero).
type requantizer struct {
	m0, half, neg, zero int64
	shift               uint
}

// newRequantizer precomputes the rounding right shift, which rounds half
// away from zero: half is 2^(shift−1), and neg takes one off it for a
// negative product. A zero shift means the multiplier is already integral
// and the shift is the identity (half and neg are both 0); it is
// unreachable for multipliers produced by requantMultiplier (< 1 ⇒
// shift ≥ 31) but kept total so the function is well-defined on all inputs
// (see FuzzRequantize). The shift is capped at 63: any product of an
// accumulator below 2³¹ and a 31-bit mantissa is below 2⁶², so from 63 up
// every shift rounds it to 0, and the cap keeps that exact.
func newRequantizer(m0 int32, shift uint, zero int32) requantizer {
	shift = min(shift, 63)
	return requantizer{
		m0:    int64(m0),
		half:  int64(uint64(1) << shift >> 1),
		neg:   -int64(min(shift, 1)),
		zero:  int64(zero),
		shift: shift,
	}
}

// apply requantizes one accumulator. The sum is taken in int64 because
// acc·m0 can exceed int32 before the shift for adversarial (fuzzed) inputs
// even though converted networks never produce them. The shift is already
// at most 63; masking it tells the compiler so, and it emits a bare SAR.
func (r requantizer) apply(acc int64) int8 {
	prod := acc * r.m0
	q := (prod+r.half+prod>>63&r.neg)>>(r.shift&63) + r.zero
	return int8(min(max(q, -128), 127))
}
