//go:build !amd64

package sky

import "repro/internal/geom"

// quads evaluates no directions: on architectures without a SIMD kernel
// every direction takes the scalar loop.
func (m *mixture) quads(dirs []geom.Vec, out []float64) int { return 0 }
