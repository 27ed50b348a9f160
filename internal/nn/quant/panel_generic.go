//go:build !amd64

package quant

// panelDot computes y[o] = Σᵢ x[i]·w[o][i] over a packed panel (see
// panelDotGeneric for the shapes). On architectures without a SIMD kernel
// it is the portable scalar loop.
func panelDot(y []int32, x, w []int16) { panelDotGeneric(y, x, w) }
