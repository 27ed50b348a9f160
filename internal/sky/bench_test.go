package sky

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/xrand"
)

// floatSink keeps the compiler from discarding benchmarked evaluations.
var floatSink float64

// BenchmarkMixture evaluates a sky map's worth of directions on the
// mixture surface of one ring set, the shape of the flown sky-map build:
// 770 upper-hemisphere directions (256 coarse pixels plus up to 512 fine
// ones) × 700 rings (220 through a source, 480 background) with
// classifier-like probabilities. "batch" is the evaluator a map build
// uses (the kernel where it runs); "scalar" is the scalar column loop.
func BenchmarkMixture(b *testing.B) {
	rng := xrand.New(3)
	s := geom.FromSpherical(geom.Rad(25), geom.Rad(140))
	rings := RingsAround(s, 700, 0.03, rng)
	probs := make([]float64, len(rings))
	for i := range rings {
		probs[i] = 0.3 * math.Pow(rng.Float64(), 3)
		if i >= 220 {
			rings[i].Eta = rng.Uniform(-1, 1)
			probs[i] = 1 - 0.5*math.Pow(rng.Float64(), 2)
		}
	}
	dirs := make([]geom.Vec, 770)
	for i := range dirs {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi/2)
		dirs[i] = geom.Vec{X: x, Y: y, Z: z}
	}
	m := newMixture(9, rings, probs)
	out := make([]float64, len(dirs))
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.eval(dirs, out)
			floatSink += out[0]
		}
	})
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k, d := range dirs {
				out[k] = m.at(d)
			}
			floatSink += out[0]
		}
	})
}
