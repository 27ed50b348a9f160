package quant

// This file is the int8 kernel's packed weight layout and its portable
// reference. A layer's int8 weights are widened to int16 and packed once
// (Prepare) into panels of sixteen outputs, so one kernel pass scores a
// row against sixteen outputs with one broadcast of each input pair.

// panelBlock is the number of outputs one panel holds.
const panelBlock = 16

// panelWidths returns the padded widths panelDot works on for a layer: the
// input width rounded up to a whole pair, and the output width rounded up
// to a whole panel.
func panelWidths(l *Int8Layer) (in, out int) {
	return (l.In + 1) &^ 1, (l.Out + panelBlock - 1) &^ (panelBlock - 1)
}

// packPanel widens a layer's weights to int16 and packs them for panelDot
// as [block][pair][16 outputs][2]: block b holds outputs 16b…16b+15, and
// pair k holds inputs 2k and 2k+1, so w[o][2k] and w[o][2k+1] are adjacent
// for every output. Outputs past Out and the odd input past In are zero,
// which makes whatever sits in the padded activation slot contribute 0.
func packPanel(l *Int8Layer) []int16 {
	in, out := panelWidths(l)
	pairs := in / 2
	p := make([]int16, in*out)
	for o := 0; o < l.Out; o++ {
		b, j := o/panelBlock, o%panelBlock
		for i, w := range l.W[o*l.In : (o+1)*l.In] {
			p[((b*pairs+i/2)*panelBlock+j)*2+i%2] = int16(w)
		}
	}
	return p
}

// panelDotGeneric computes y[o] = Σᵢ x[i]·w[o][i] for every output o of a
// packed panel (packPanel's layout): len(x) is the even padded input width,
// len(y) a multiple of 16, and len(w) = len(x)·len(y). Sums wrap in int32
// exactly as the SIMD lanes do; for int8-range operands they are exact for
// any width below 2¹⁷. It is the portable panelDot and the reference the
// SIMD kernel is differential-tested against (TestPanelDotMatchesGeneric,
// FuzzPanelDot).
func panelDotGeneric(y []int32, x, w []int16) {
	pairs := len(x) / 2
	for b := 0; b < len(y)/panelBlock; b++ {
		acc := y[b*panelBlock : (b+1)*panelBlock]
		clear(acc)
		for k := 0; k < pairs; k++ {
			x0, x1 := int32(x[2*k]), int32(x[2*k+1])
			p := w[(b*pairs+k)*2*panelBlock : (b*pairs+k+1)*2*panelBlock]
			for j := range acc {
				acc[j] += x0*int32(p[2*j]) + x1*int32(p[2*j+1])
			}
		}
	}
}
