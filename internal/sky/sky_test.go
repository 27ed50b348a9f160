package sky

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
	"repro/internal/xrand"
)

func TestGridCoversHemisphere(t *testing.T) {
	g := NewGrid(16)
	if g.NumPixels() < 100 {
		t.Fatalf("only %d pixels", g.NumPixels())
	}
	// Total solid angle = 2π (the hemisphere).
	var sr float64
	for i := 0; i < g.NumPixels(); i++ {
		sr += g.PixelSr(i)
	}
	if math.Abs(sr-2*math.Pi) > 1e-9 {
		t.Errorf("total solid angle %v, want 2π", sr)
	}
	// Pixel areas roughly equal: max/min within a factor ~3 (the polar cap
	// pixel is the outlier).
	mn, mx := math.Inf(1), math.Inf(-1)
	for i := 0; i < g.NumPixels(); i++ {
		a := g.PixelSr(i)
		mn = math.Min(mn, a)
		mx = math.Max(mx, a)
	}
	if mx/mn > 4 {
		t.Errorf("pixel area ratio %v; not equal-area", mx/mn)
	}
}

func TestFindInvertsDir(t *testing.T) {
	g := NewGrid(12)
	for i := 0; i < g.NumPixels(); i++ {
		if got := g.Find(g.Dir(i)); got != i {
			t.Fatalf("Find(Dir(%d)) = %d", i, got)
		}
	}
}

func TestFindArbitraryDirections(t *testing.T) {
	g := NewGrid(10)
	f := func(seed uint64) bool {
		rng := xrand.New(seed)
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi/2)
		d := geom.Vec{X: x, Y: y, Z: z}
		i := g.Find(d)
		if i < 0 || i >= g.NumPixels() {
			return false
		}
		// The pixel center must be within a few pixel scales of d.
		return geom.AngleBetween(g.Dir(i), d) < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// ringsAround builds noisy rings through s.
func ringsAround(s geom.Vec, n int, noise float64, rng *xrand.RNG) []*recon.Ring {
	var rings []*recon.Ring
	for i := 0; i < n; i++ {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		rings = append(rings, &recon.Ring{
			Ring: geom.Ring{Axis: axis, Eta: geom.Clamp(s.Dot(axis)+rng.Gaussian(0, noise), -1, 1), DEta: noise},
		})
	}
	return rings
}

// peak returns the pixel center of g where eval is largest.
func peak(eval func([]geom.Vec, []float64), g *Grid) geom.Vec {
	dirs := make([]geom.Vec, g.NumPixels())
	for i := range dirs {
		dirs[i] = g.Dir(i)
	}
	vals := make([]float64, len(dirs))
	eval(dirs, vals)
	best, bl := dirs[0], math.Inf(-1)
	for i, l := range vals {
		if l > bl {
			best, bl = dirs[i], l
		}
	}
	return best
}

func TestLikelihoodPeaksAtSource(t *testing.T) {
	cfg := localize.DefaultConfig()
	rng := xrand.New(1)
	s := geom.FromSpherical(geom.Rad(35), geom.Rad(120))
	eval := LikelihoodEvaluator(&cfg, ringsAround(s, 80, 0.02, rng))
	if d := geom.Deg(geom.AngleBetween(peak(eval, NewGrid(16)), s)); d > 6 {
		t.Errorf("likelihood peak %v° from the source", d)
	}
}

func TestMixtureLikelihoodDownweightsBackground(t *testing.T) {
	cfg := localize.DefaultConfig()
	rng := xrand.New(6)
	s := geom.FromSpherical(geom.Rad(30), geom.Rad(-120))
	src := ringsAround(s, 40, 0.03, rng)
	// Background rings consistent with a different (decoy) direction.
	decoy := geom.FromSpherical(geom.Rad(50), geom.Rad(40))
	bkg := ringsAround(decoy, 120, 0.03, rng)
	rings := append(append([]*recon.Ring{}, src...), bkg...)
	probs := make([]float64, len(rings))
	for i := range probs {
		if i >= len(src) {
			probs[i] = 0.95 // classifier flags the decoy population
		}
	}
	g := NewGrid(16)
	best := peak(MixtureEvaluator(&cfg, rings, probs), g)
	if d := geom.Deg(geom.AngleBetween(best, s)); d > 8 {
		t.Errorf("mixture surface peaked %v° from the source (decoy won)", d)
	}
	// With no background weighting, the 3x larger decoy population wins.
	zero := make([]float64, len(rings))
	best0 := peak(MixtureEvaluator(&cfg, rings, zero), g)
	if d := geom.Deg(geom.AngleBetween(best0, decoy)); d > 8 {
		t.Errorf("unweighted mixture should peak at the decoy; got %v° away", d)
	}
	// Length mismatch panics.
	defer func() {
		if recover() == nil {
			t.Error("bkgProb length mismatch did not panic")
		}
	}()
	MixtureEvaluator(&cfg, rings, probs[:3])
}
