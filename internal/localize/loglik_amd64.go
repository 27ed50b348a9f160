//go:build amd64

package localize

import "repro/internal/geom"

// logLikPair scores directions a and b against the view: the pair
// v.logLik(robustCap, a), v.logLik(robustCap, b). On amd64 it runs the
// SSE2 kernel in loglik_amd64.s, whose two vector lanes are the two
// directions. Each lane repeats logLik's operations in ring order — the
// same products and sums, a true divide, math.Min by MINPD, the halving
// and the subtraction, no fused multiply-add — so both scores equal the
// scalar loop's bit for bit, except that a NaN score may carry another NaN
// payload. MINPD reproduces math.Min only when robustCap > 0 (math.Min
// returns −0 for a −0 cap, and NaN or −Inf for a NaN or −Inf cap, where
// MINPD returns the pull²); any other cap takes the scalar loop. SSE2 is
// the amd64 baseline, so no runtime feature detection is needed
// (TestLogLikPairMatchesScalar, FuzzLogLikelihoodPair).
func (v *view) logLikPair(robustCap float64, a, b geom.Vec) (float64, float64) {
	if !(robustCap > 0) {
		return v.logLik(robustCap, a), v.logLik(robustCap, b)
	}
	return logLikPairSSE2(v.x, v.y, v.z, v.eta, v.deta, a.X, a.Y, a.Z, b.X, b.Y, b.Z, robustCap)
}

// logLikPairSSE2 is the kernel behind logLikPair. It reads len(x) elements
// of each column; y, z, eta and deta must be at least that long.
//
//go:noescape
func logLikPairSSE2(x, y, z, eta, deta []float64, ax, ay, az, bx, by, bz, robustCap float64) (la, lb float64)
