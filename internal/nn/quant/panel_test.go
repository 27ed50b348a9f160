package quant

import (
	"testing"

	"repro/internal/xrand"
)

// randInt16s returns n values drawn uniformly from the int8 range, the
// operands the network feeds the kernel.
func randInt16s(rng *xrand.RNG, n int) []int16 {
	v := make([]int16, n)
	for i := range v {
		v[i] = int16(int8(rng.Uint64()))
	}
	return v
}

// TestPanelDotMatchesGeneric differential-tests the active panelDot (the
// SSE2 kernel on amd64) against the portable scalar reference, on panels
// packed from random layers: odd and even In from 1 to 300, Out that is
// and is not a multiple of 16, and zero-width edge cases. It also checks
// the reference against a plain per-output dot product over the unpacked
// weights, so the packing is pinned too.
func TestPanelDotMatchesGeneric(t *testing.T) {
	rng := xrand.New(51)
	ins := []int{1, 2, 3, 7, 13, 16, 31, 64, 127, 128, 255, 256, 257, 300}
	for in := 1; in <= 40; in++ {
		ins = append(ins, in)
	}
	for _, in := range ins {
		for _, outs := range []int{1, 5, 15, 16, 17, 33, 64} {
			l := &Int8Layer{In: in, Out: outs, W: make([]int8, in*outs)}
			for i := range l.W {
				l.W[i] = int8(rng.Uint64())
			}
			panel := packPanel(l)
			pin, pout := panelWidths(l)
			x := randInt16s(rng, pin)
			x[pin-1] = int16(int8(rng.Uint64())) // garbage in an odd pad slot must not count
			got := make([]int32, pout)
			want := make([]int32, pout)
			panelDot(got, x, panel)
			panelDotGeneric(want, x, panel)
			for o := range want {
				if got[o] != want[o] {
					t.Fatalf("In %d Out %d output %d: panelDot = %d, generic = %d", in, outs, o, got[o], want[o])
				}
				var dot int32
				if o < outs {
					for i, w := range l.W[o*in : (o+1)*in] {
						dot += int32(x[i]) * int32(w)
					}
				}
				if want[o] != dot {
					t.Fatalf("In %d Out %d output %d: generic = %d, plain dot = %d", in, outs, o, want[o], dot)
				}
			}
		}
	}

	// Zero pairs or zero blocks: nothing read, accumulators zeroed or
	// untouched.
	y := []int32{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7}
	panelDot(y, nil, nil)
	for o, v := range y {
		if v != 0 {
			t.Fatalf("zero pairs: y[%d] = %d, want 0", o, v)
		}
	}
	panelDot(nil, []int16{1, 2}, nil)

	// Extremes: −128·−128 accumulated across a full 256-wide layer, in
	// every output of a block.
	n := 256
	lo := make([]int16, n)
	for i := range lo {
		lo[i] = -128
	}
	w := make([]int16, n*panelBlock)
	for i := range w {
		w[i] = -128
	}
	y = make([]int32, panelBlock)
	panelDot(y, lo, w)
	for o, v := range y {
		if want := int32(n) * 128 * 128; v != want {
			t.Fatalf("all -128: y[%d] = %d, want %d", o, v, want)
		}
	}
}

// TestPanelDotNoOverread: the kernel reads only len(x) elements of x and
// len(x)·len(y) of w, and writes only len(y) elements of y, even when every
// backing array is longer. The words past each slice are poisoned with
// values that would change any sum that read them.
func TestPanelDotNoOverread(t *testing.T) {
	rng := xrand.New(52)
	const poison = 0x7fff
	for _, shape := range [][2]int{{2, 16}, {14, 16}, {14, 256}, {256, 128}, {64, 16}} {
		in, outs := shape[0], shape[1]
		xs := append(randInt16s(rng, in), poison, poison, poison, poison)
		ws := append(randInt16s(rng, in*outs), make([]int16, 64)...)
		for i := in * outs; i < len(ws); i++ {
			ws[i] = poison
		}
		ys := make([]int32, outs+16)
		for i := outs; i < len(ys); i++ {
			ys[i] = -1
		}
		x, w, y := xs[:in], ws[:in*outs], ys[:outs]
		want := make([]int32, outs)
		panelDotGeneric(want, append([]int16(nil), x...), append([]int16(nil), w...))
		panelDot(y, x, w)
		for o := range want {
			if y[o] != want[o] {
				t.Fatalf("%dx%d output %d: panelDot = %d, want %d (read past a slice?)", in, outs, o, y[o], want[o])
			}
		}
		for i := outs; i < len(ys); i++ {
			if ys[i] != -1 {
				t.Fatalf("%dx%d: wrote y[%d] past len(y)", in, outs, i)
			}
		}
	}
}

// FuzzPanelDot drives the differential test from the fuzzer: any int16
// operands — not only the int8 range the network feeds — and any panel
// count must give identical sums from the SIMD and scalar paths, since
// both wrap in int32 the same way.
func FuzzPanelDot(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{5, 6, 7}, uint8(0))
	f.Add([]byte{0x00, 0x80, 0x00, 0x80}, []byte{0x00, 0x80}, uint8(2))
	f.Add([]byte{}, []byte{}, uint8(1))
	f.Fuzz(func(t *testing.T, xb, wb []byte, blocks uint8) {
		x := make([]int16, len(xb)/4*2)
		for i := range x {
			x[i] = int16(uint16(xb[2*i]) | uint16(xb[2*i+1])<<8)
		}
		y := make([]int32, (int(blocks)%5)*panelBlock)
		w := make([]int16, len(x)*len(y))
		for i := range w {
			if len(wb) >= 2 {
				j := 2 * i % (len(wb) &^ 1)
				w[i] = int16(uint16(wb[j])|uint16(wb[j+1])<<8) ^ int16(i)
			}
		}
		want := make([]int32, len(y))
		panelDot(y, x, w)
		panelDotGeneric(want, x, w)
		for o := range want {
			if y[o] != want[o] {
				t.Fatalf("pairs %d blocks %d output %d: panelDot = %d, generic = %d", len(x)/2, len(y)/panelBlock, o, y[o], want[o])
			}
		}
	})
}

// BenchmarkPanelDot scores one row against the paper net's widest layer
// (256→128) through the SSE2 kernel and through the scalar reference.
func BenchmarkPanelDot(b *testing.B) {
	rng := xrand.New(53)
	l := &Int8Layer{In: 256, Out: 128, W: make([]int8, 256*128)}
	for i := range l.W {
		l.W[i] = int8(rng.Uint64())
	}
	panel, x, y := packPanel(l), randInt16s(rng, 256), make([]int32, 128)
	for _, k := range []struct {
		name string
		dot  func(y []int32, x, w []int16)
	}{{"kernel", panelDot}, {"generic", panelDotGeneric}} {
		b.Run(k.name, func(b *testing.B) {
			b.SetBytes(int64(2 * len(panel)))
			for i := 0; i < b.N; i++ {
				k.dot(y, x, panel)
			}
			sinkAcc = y
		})
	}
}
