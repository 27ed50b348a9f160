//go:build !amd64

package nn

// linearForward computes y = x·Wᵀ + b, W stored [len(b)][x.Cols] row-major.
// On architectures without a SIMD kernel it is the portable scalar loop.
func linearForward(y, x *Tensor, w, b []float32) { linearForwardGeneric(y, x, w, b) }
