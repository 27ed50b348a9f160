package nn

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/xrand"
)

// specialFloat32s are the values whose float semantics a kernel can get
// wrong: signed zeros, the smallest and largest subnormals, infinities and
// NaNs of both signs with different payloads.
var specialFloat32s = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(0x00000001), math.Float32frombits(0x807FFFFF),
	math.Float32frombits(0x007FFFFF), math.Float32frombits(0x80000001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000),
	math.Float32frombits(0x7F800001), math.Float32frombits(0xFFA5A5A5),
	math.MaxFloat32, -math.MaxFloat32,
}

// specialRows gives about half the rows of t one to three special values.
func specialRows(t *Tensor, rng *xrand.RNG) {
	for r := 0; r < t.Rows; r++ {
		if rng.IntN(2) == 0 {
			continue
		}
		row := t.Row(r)
		for n := rng.IntN(3); n >= 0; n-- {
			row[rng.IntN(len(row))] = specialFloat32s[rng.IntN(len(specialFloat32s))]
		}
	}
}

// batchNormEvalColumnMajor is the eval-mode BatchNorm1D loop as first
// written: column by column through At/Set, with inv computed per column.
// It is the reference the row-major loop must reproduce bit for bit.
func batchNormEvalColumnMajor(b *BatchNorm1D, x *Tensor) *Tensor {
	y := NewTensor(x.Rows, x.Cols)
	for c := 0; c < b.Dim; c++ {
		inv := float32(1 / math.Sqrt(float64(b.RunVar[c]+b.Eps)))
		g, bt, mu := b.Gamma.W[c], b.Beta.W[c], b.RunMean[c]
		for r := 0; r < x.Rows; r++ {
			y.Set(r, c, (x.At(r, c)-mu)*inv*g+bt)
		}
	}
	return y
}

// TestBatchNormEvalBitwise pins eval-mode BatchNorm1D to the column-major
// reference bit for bit, specials included.
func TestBatchNormEvalBitwise(t *testing.T) {
	rng := xrand.New(61)
	for _, dim := range []int{1, 3, 13, 64, 256} {
		b := NewBatchNorm1D(dim)
		for c := 0; c < dim; c++ {
			b.Gamma.W[c] = float32(rng.Gaussian(1, 0.5))
			b.Beta.W[c] = float32(rng.Gaussian(0, 1))
			b.RunMean[c] = float32(rng.Gaussian(0, 2))
			b.RunVar[c] = float32(rng.Uniform(0, 4))
		}
		b.RunVar[0] = 0 // inv = 1/sqrt(eps)
		for _, rows := range []int{0, 1, 5, 462} {
			x := randTensor(rows, dim, rng)
			specialRows(x, rng)
			got, want := b.Forward(x, false), batchNormEvalColumnMajor(b, x)
			for i := range want.Data {
				if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
					t.Fatalf("dim %d rows %d elem %d (x=%#08x): got %#08x, want %#08x",
						dim, rows, i, math.Float32bits(x.Data[i]), g, w)
				}
			}
		}
	}
}

// TestReLUEvalBitwise pins eval-mode ReLU: every NaN and −0 maps to +0,
// +Inf and positive subnormals are kept, and any bit pattern matches the
// comparison loop `if v > 0 { y = v }` bit for bit.
func TestReLUEvalBitwise(t *testing.T) {
	cases := []struct{ in, want uint32 }{
		{0x00000000, 0}, // +0
		{0x80000000, 0}, // −0
		{0x00000001, 0x00000001},
		{0x007FFFFF, 0x007FFFFF},
		{0x80000001, 0},
		{0x3F800000, 0x3F800000}, // 1
		{0xBF800000, 0},          // −1
		{0x7F7FFFFF, 0x7F7FFFFF}, // MaxFloat32
		{0x7F800000, 0x7F800000}, // +Inf
		{0xFF800000, 0},          // −Inf
		{0x7F800001, 0},          // signalling NaN
		{0x7FC00000, 0},          // quiet NaN
		{0x7FFFFFFF, 0},
		{0xFFC00000, 0}, // negative NaN
		{0xFF800001, 0},
		{0xFFFFFFFF, 0},
	}
	x := NewTensor(1, len(cases))
	for i, c := range cases {
		x.Data[i] = math.Float32frombits(c.in)
	}
	y := NewReLU().Forward(x, false)
	for i, c := range cases {
		if got := math.Float32bits(y.Data[i]); got != c.want {
			t.Errorf("ReLU(%#08x) = %#08x, want %#08x", c.in, got, c.want)
		}
	}

	rng := xrand.New(62)
	x = NewTensor(1000, 1000)
	for i := range x.Data {
		x.Data[i] = math.Float32frombits(uint32(rng.Uint64()))
	}
	y = NewReLU().Forward(x, false)
	for i, v := range x.Data {
		var want float32
		if v > 0 {
			want = v
		}
		if got := y.Data[i]; math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("ReLU(%#08x) = %#08x, want %#08x", math.Float32bits(v), math.Float32bits(got), math.Float32bits(want))
		}
	}
}

// sameFloat32 reports whether got and want have the same bits, counting
// any two NaNs as the same. When both operands of an SSE add or multiply
// are NaN, the result carries the first operand's payload; in the scalar
// reference that order is the compiler's register allocation, not part of
// dot's contract, and IEEE 754 leaves the payload unspecified. Every other
// value, signed zeros, subnormals and infinities included, must match bit
// for bit.
func sameFloat32(got, want float32) bool {
	return math.Float32bits(got) == math.Float32bits(want) ||
		got != got && want != want
}

// checkLinearForward runs the active linearForward (the SIMD kernel on
// amd64) and the portable reference on the same operands and requires the
// same bits in every output.
func checkLinearForward(t *testing.T, x *Tensor, w, b []float32) {
	t.Helper()
	got, want := NewTensor(x.Rows, len(b)), NewTensor(x.Rows, len(b))
	linearForward(got, x, w, b)
	linearForwardGeneric(want, x, w, b)
	for i := range want.Data {
		if !sameFloat32(got.Data[i], want.Data[i]) {
			t.Fatalf("in %d out %d rows %d: y[%d][%d] = %#08x, generic %#08x",
				x.Cols, len(b), x.Rows, i/len(b), i%len(b),
				math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestLinearForwardMatchesGeneric differential-tests the active
// linearForward against the per-(row, output) dot loop over shapes that
// hit every stripe tail (In mod 4), odd output counts and short row
// blocks, with signed zeros, subnormals, infinities and NaNs in the
// inputs, weights and biases.
func TestLinearForwardMatchesGeneric(t *testing.T) {
	rng := xrand.New(63)
	for _, in := range []int{1, 2, 3, 4, 5, 13, 16, 64, 128, 256, 257} {
		for _, out := range []int{1, 2, 3, 8, 64} {
			w, b := randTensor(out, in, rng), randTensor(1, out, rng)
			specialRows(w, rng)
			specialRows(b, rng)
			for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 64, 462, 597} {
				x := randTensor(rows, in, rng)
				checkLinearForward(t, x, w.Data, b.Data)
				specialRows(x, rng)
				checkLinearForward(t, x, w.Data, b.Data)
			}
		}
	}
}

// TestLinearForwardNoOverread: the kernel reads only the x rows, Out·In
// weights and Out biases it is given and writes only y's rows, even when
// the backing arrays run on. Everything past the operands is NaN, so a
// read past them poisons the output; everything past y is a sentinel.
func TestLinearForwardNoOverread(t *testing.T) {
	const in, out, rows = 7, 3, 5
	rng := xrand.New(64)
	nan := float32(math.NaN())
	xs := randTensor(rows+4, in, rng)
	for _, r := range []int{0, 1, rows + 2, rows + 3} {
		for k := range xs.Row(r) {
			xs.Row(r)[k] = nan
		}
	}
	x := xs.SliceRows(2, rows+2)
	wBack := make([]float32, out*in+8)
	bBack := make([]float32, out+8)
	for i := range wBack {
		wBack[i] = nan
	}
	for i := range bBack {
		bBack[i] = nan
	}
	for i := 0; i < out*in; i++ {
		wBack[i] = float32(rng.Gaussian(0, 1))
	}
	for i := 0; i < out; i++ {
		bBack[i] = float32(rng.Gaussian(0, 1))
	}
	w, b := wBack[:out*in], bBack[:out]

	const sentinel = 12345
	ys := NewTensor(rows+1, out)
	ys.Fill(sentinel)
	y := ys.SliceRows(0, rows)
	linearForward(y, x, w, b)
	for i, v := range ys.Data {
		switch {
		case i >= rows*out && v != sentinel:
			t.Fatalf("wrote past y: element %d = %v", i, v)
		case i < rows*out && v != v:
			t.Fatalf("y[%d][%d] is NaN: read past the operands", i/out, i%out)
		}
	}
	checkLinearForward(t, x, w, b)
}

// FuzzLinearForward drives the differential test from the fuzzer: any
// shape up to 40 inputs, 9 outputs and 9 rows, with operands taken from
// the fuzz bytes as raw float32 bit patterns (x, then W, then b, cycling
// when the bytes run out), must give the same bits from the SIMD and
// scalar paths.
func FuzzLinearForward(f *testing.F) {
	f.Add(uint8(13), uint8(3), uint8(5), []byte{0, 0, 0x80, 0x3F, 0, 0, 0xC0, 0x7F, 1, 0, 0, 0, 0, 0, 0x80, 0xFF})
	f.Add(uint8(4), uint8(2), uint8(4), []byte{0, 0, 0, 0x80, 0xDB, 0x0F, 0x49, 0x40})
	f.Add(uint8(1), uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, in, out, rows uint8, data []byte) {
		n, o, r := 1+int(in%40), 1+int(out%9), int(rows%10)
		vals := make([]float32, len(data)/4)
		for i := range vals {
			vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(data[4*i:]))
		}
		x, w, b := NewTensor(r, n), make([]float32, o*n), make([]float32, o)
		if len(vals) > 0 {
			next := 0
			for _, s := range [][]float32{x.Data, w, b} {
				for i := range s {
					s[i] = vals[next%len(vals)]
					next++
				}
			}
		}
		checkLinearForward(t, x, w, b)
	})
}
