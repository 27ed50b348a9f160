package quant

import (
	"math/big"
	"testing"
)

// FuzzRequantize checks the fixed-point requantization kernel on its full
// domain: any accumulator a converted network could produce, any 31-bit
// mantissa, any shift. The property is the rounding contract — the int8
// result dequantizes to within half an output step of acc·m0·2^(−shift),
// with saturation only when the true value is at or past the rail.
func FuzzRequantize(f *testing.F) {
	f.Add(int64(1234567), int32(1<<30+12345), uint(31), int32(-3))
	f.Add(int64(-987654), int32(1<<31-1), uint(40), int32(7))
	f.Add(int64(0), int32(1), uint(0), int32(0))
	f.Add(int64(-1)<<30, int32(3), uint(1), int32(127))
	f.Add(int64(1)<<30, int32(1<<30), uint(63), int32(-128))
	f.Add(int64(3), int32(1<<30), uint(31), int32(0)) // exact tie: 1.5 rounds away
	f.Fuzz(func(t *testing.T, acc int64, m0 int32, shift uint, zero int32) {
		// Constrain to the domain the kernel is specified over: shifts below
		// the word width, non-negative mantissa, and an accumulator small
		// enough that acc·m0 fits in int64 (layer arithmetic guarantees this
		// for real networks; |acc| ≤ In·128² + |bias|).
		shift %= 64
		if m0 < 0 {
			m0 = ^m0
		}
		acc %= 1 << 31

		got := requantize(acc, m0, shift, zero)
		prod := new(big.Int).Mul(big.NewInt(acc), big.NewInt(int64(m0)))
		half := new(big.Int)
		if shift > 0 {
			half.Lsh(big.NewInt(1), shift-1)
		}
		scaled := func(q int64) *big.Int {
			return new(big.Int).Lsh(big.NewInt(q-int64(zero)), shift)
		}

		switch {
		case got > -128 && got < 127:
			// Interior result: |(q−zero)·2^shift − prod| ≤ 2^(shift−1),
			// exact when shift is zero.
			diff := new(big.Int).Abs(new(big.Int).Sub(scaled(int64(got)), prod))
			if diff.Cmp(half) > 0 {
				t.Errorf("requantize(%d, %d, %d, %d) = %d: off by %s > half step %s",
					acc, m0, shift, zero, got, diff, half)
			}
		case got == 127:
			// Saturated high: the true value must be at least the rail
			// minus half a step.
			rail := new(big.Int).Sub(scaled(127), half)
			if prod.Cmp(rail) < 0 {
				t.Errorf("requantize(%d, %d, %d, %d) saturated to 127 below the rail", acc, m0, shift, zero)
			}
		case got == -128:
			rail := new(big.Int).Add(scaled(-128), half)
			if prod.Cmp(rail) > 0 {
				t.Errorf("requantize(%d, %d, %d, %d) saturated to -128 above the rail", acc, m0, shift, zero)
			}
		}
	})
}

// TestRequantizeLargeShift extends FuzzRequantize's contract past its
// shift range: from a shift of 63 up, every product in its domain
// (|acc·m0| < 2⁶²) is below half a step, so the result is the zero point,
// including shifts at and past the word width.
func TestRequantizeLargeShift(t *testing.T) {
	for _, shift := range []uint{63, 64, 65, 100, 1 << 20} {
		for _, acc := range []int64{-(1<<31 - 1), -3, -1, 0, 1, 3, 1<<31 - 1} {
			for _, zero := range []int32{-128, 0, 5, 127} {
				if got := requantize(acc, 1<<31-1, shift, zero); got != int8(zero) {
					t.Errorf("requantize(%d, 2³¹−1, %d, %d) = %d, want %d", acc, shift, zero, got, zero)
				}
			}
		}
	}
}
