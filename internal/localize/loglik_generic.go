//go:build !amd64

package localize

import "repro/internal/geom"

// logLikPair scores directions a and b against the view. On architectures
// without a SIMD kernel it is the scalar loop, twice.
func (v *view) logLikPair(robustCap float64, a, b geom.Vec) (float64, float64) {
	return v.logLik(robustCap, a), v.logLik(robustCap, b)
}
