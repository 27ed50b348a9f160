package localize

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// benchWorkload builds a paper-scale ring set: ~600 rings, 1:2.2
// source:background, around a 25°-polar source.
func benchWorkload() ([]*recon.Ring, geom.Vec) {
	rng := xrand.New(42)
	s := geom.FromSpherical(geom.Rad(25), geom.Rad(140))
	rings := syntheticRings(s, 190, 0.02, 420, rng)
	return rings, s
}

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	seedSink   []geom.Vec
	resultSink Result
	floatSink  float64
)

func BenchmarkApproximate(b *testing.B) {
	cfg := DefaultConfig()
	rings, _ := benchWorkload()
	rng := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedSink = Approximate(&cfg, rings, rng, 3)
	}
}

func BenchmarkRefine(b *testing.B) {
	cfg := DefaultConfig()
	rings, _ := benchWorkload()
	start := geom.FromSpherical(geom.Rad(28), geom.Rad(143))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resultSink = Refine(&cfg, rings, start)
	}
}

func BenchmarkLocalize(b *testing.B) {
	cfg := DefaultConfig()
	rings, _ := benchWorkload()
	rng := xrand.New(2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resultSink = Localize(&cfg, rings, rng)
	}
}

// BenchmarkSurface scores a sky map's worth of directions against one ring
// set, the shape of the no-ML sky-map build: 770 upper-hemisphere
// directions (256 coarse pixels plus up to 512 fine ones) × 700 rings.
func BenchmarkSurface(b *testing.B) {
	cfg := DefaultConfig()
	rng := xrand.New(3)
	rings := syntheticRings(geom.FromSpherical(geom.Rad(25), geom.Rad(140)), 220, 0.02, 480, rng)
	dirs := make([]geom.Vec, 770)
	for i := range dirs {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi/2)
		dirs[i] = geom.Vec{X: x, Y: y, Z: z}
	}
	out := make([]float64, len(dirs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Surface(&cfg, rings)(dirs, out)
		floatSink += out[0]
	}
}
