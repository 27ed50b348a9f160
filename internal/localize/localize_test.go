package localize

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// syntheticRings builds n rings whose surfaces pass (with Gaussian noise of
// width noise in cosine space) through the true direction s. Ring axes are
// random directions; background rings, if any, are appended with random η.
func syntheticRings(s geom.Vec, n int, noise float64, nBackground int, rng *xrand.RNG) []*recon.Ring {
	var rings []*recon.Ring
	for i := 0; i < n; i++ {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		eta := s.Dot(axis) + rng.Gaussian(0, noise)
		rings = append(rings, &recon.Ring{
			Ring:       geom.Ring{Axis: axis, Eta: geom.Clamp(eta, -1, 1), DEta: math.Max(noise, 0.005)},
			TrueSource: s,
		})
	}
	for i := 0; i < nBackground; i++ {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		rings = append(rings, &recon.Ring{
			Ring:       geom.Ring{Axis: axis, Eta: rng.Uniform(-1, 1), DEta: math.Max(noise, 0.005)},
			Background: true,
		})
	}
	rng.Shuffle(len(rings), func(i, j int) { rings[i], rings[j] = rings[j], rings[i] })
	return rings
}

func TestLocalizeCleanRings(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(1)
	s := geom.FromSpherical(geom.Rad(25), geom.Rad(100))
	rings := syntheticRings(s, 80, 0.01, 0, rng)
	res := Localize(&cfg, rings, rng)
	if !res.OK {
		t.Fatal("localization failed")
	}
	if err := res.ErrorDeg(s); err > 1.0 {
		t.Errorf("clean-ring error %v°, want < 1°", err)
	}
	if res.RingsUsed < 40 {
		t.Errorf("only %d rings gated in", res.RingsUsed)
	}
}

func TestLocalizeWithBackground(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(2)
	s := geom.FromSpherical(geom.Rad(40), geom.Rad(-60))
	rings := syntheticRings(s, 60, 0.02, 120, rng) // 2:1 background
	res := Localize(&cfg, rings, rng)
	if !res.OK {
		t.Fatal("localization failed")
	}
	if err := res.ErrorDeg(s); err > 3.0 {
		t.Errorf("background-contaminated error %v°, want < 3°", err)
	}
}

func TestRefineConvergesFromOffset(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(3)
	s := geom.FromSpherical(geom.Rad(10), geom.Rad(30))
	rings := syntheticRings(s, 100, 0.01, 0, rng)
	start := geom.FromSpherical(geom.Rad(18), geom.Rad(35)) // ~8° off
	res := Refine(&cfg, rings, start)
	if !res.OK || res.ErrorDeg(s) > 1.0 {
		t.Errorf("refinement from offset: err %v°", res.ErrorDeg(s))
	}
	if !res.Converged && res.Iterations == cfg.MaxIters {
		t.Log("refinement used the full iteration budget (acceptable but noteworthy)")
	}
}

func TestRotationEquivariance(t *testing.T) {
	// Localizing rotated rings must give the rotated answer (around the z
	// axis, which preserves the SkyOnly constraint).
	cfg := DefaultConfig()
	s := geom.FromSpherical(geom.Rad(35), geom.Rad(0))
	rng := xrand.New(4)
	rings := syntheticRings(s, 60, 0.01, 0, rng)
	res1 := Localize(&cfg, rings, xrand.New(99))

	phi := geom.Rad(70)
	zAxis := geom.Vec{Z: 1}
	var rotated []*recon.Ring
	for _, r := range rings {
		rr := *r
		rr.Axis = geom.RotateAbout(r.Axis, zAxis, phi)
		rotated = append(rotated, &rr)
	}
	res2 := Localize(&cfg, rotated, xrand.New(99))
	want := geom.RotateAbout(res1.Dir, zAxis, phi)
	if !res1.OK || !res2.OK {
		t.Fatal("localization failed")
	}
	if d := geom.Deg(geom.AngleBetween(res2.Dir, want)); d > 1.5 {
		t.Errorf("rotated solution differs by %v° from rotating the solution", d)
	}
}

func TestNoRings(t *testing.T) {
	cfg := DefaultConfig()
	res := Localize(&cfg, nil, xrand.New(5))
	if res.OK {
		t.Error("OK with no rings")
	}
	if dirs := Approximate(&cfg, nil, xrand.New(5), 3); dirs != nil {
		t.Error("Approximate returned seeds with no rings")
	}
}

func TestApproximateSeedsAreSeparatedAndOnSky(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(6)
	s := geom.FromSpherical(geom.Rad(50), geom.Rad(10))
	rings := syntheticRings(s, 50, 0.02, 50, rng)
	seeds := Approximate(&cfg, rings, rng, 3)
	if len(seeds) == 0 {
		t.Fatal("no seeds")
	}
	for i, a := range seeds {
		if cfg.SkyOnly && a.Z < -0.05 {
			t.Errorf("seed %d below the horizon: %v", i, a)
		}
		for j := i + 1; j < len(seeds); j++ {
			if a.Dot(seeds[j]) > 0.9999 {
				t.Errorf("seeds %d and %d coincide", i, j)
			}
		}
	}
}

func TestGateWidensWhenStarved(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(7)
	s := geom.Vec{Z: 1}
	// All rings far from the probe direction: the gate must widen rather
	// than return an empty set.
	var rings []*recon.Ring
	for i := 0; i < 10; i++ {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		rings = append(rings, &recon.Ring{
			Ring: geom.Ring{Axis: geom.Vec{X: x, Y: y, Z: z}, Eta: -0.9, DEta: 0.01},
		})
	}
	if got := newView(rings).gate(&cfg, s, nil); len(got) == 0 {
		t.Error("gate returned nothing even after widening")
	}
}

func TestSolve3(t *testing.T) {
	m := [3][3]float64{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}
	b := [3]float64{2, 6, 12}
	x, ok := solve3(m, b)
	if !ok || math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 || math.Abs(x[2]-3) > 1e-12 {
		t.Errorf("solve3 diagonal = %v, ok=%v", x, ok)
	}
	// A system requiring pivoting.
	m = [3][3]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}
	b = [3]float64{5, 7, 9}
	x, ok = solve3(m, b)
	if !ok || x[0] != 7 || x[1] != 5 || x[2] != 9 {
		t.Errorf("solve3 pivot = %v, ok=%v", x, ok)
	}
	// Singular matrix.
	m = [3][3]float64{{1, 1, 0}, {1, 1, 0}, {0, 0, 0}}
	if _, ok := solve3(m, [3]float64{1, 1, 0}); ok {
		t.Error("singular system solved")
	}
}

func TestLogLikelihoodCap(t *testing.T) {
	cfg := DefaultConfig()
	s := geom.Vec{Z: 1}
	near := &recon.Ring{Ring: geom.Ring{Axis: geom.Vec{Z: 1}, Eta: 1, DEta: 0.1}}
	far := &recon.Ring{Ring: geom.Ring{Axis: geom.Vec{Z: 1}, Eta: -1, DEta: 0.001}}
	llNear := LogLikelihood(&cfg, []*recon.Ring{near}, s)
	llFar := LogLikelihood(&cfg, []*recon.Ring{far}, s)
	if llNear != 0 {
		t.Errorf("on-surface ring likelihood = %v, want 0", llNear)
	}
	if llFar != -cfg.RobustCap/2 {
		t.Errorf("far ring likelihood = %v, want capped at %v", llFar, -cfg.RobustCap/2)
	}
}

func TestSkyOnlyProjection(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(8)
	// Rings consistent with a below-horizon source; the solver must keep
	// the estimate at or above the horizon.
	s := geom.FromSpherical(geom.Rad(120), 0) // 30° below horizon
	rings := syntheticRings(s, 60, 0.01, 0, rng)
	res := Refine(&cfg, rings, geom.FromSpherical(geom.Rad(85), 0))
	if res.OK && res.Dir.Z < -1e-9 {
		t.Errorf("estimate dove below the horizon: %v", res.Dir)
	}
}

func TestErrorRadiusEstimate(t *testing.T) {
	cfg := DefaultConfig()
	rng := xrand.New(10)
	s := geom.FromSpherical(geom.Rad(30), geom.Rad(45))

	// Tighter rings → smaller estimated radius; and more rings → smaller.
	few := syntheticRings(s, 20, 0.05, 0, rng)
	many := syntheticRings(s, 200, 0.05, 0, rng)
	tight := syntheticRings(s, 20, 0.005, 0, rng)

	rFew := ErrorRadiusDeg(&cfg, few, s)
	rMany := ErrorRadiusDeg(&cfg, many, s)
	rTight := ErrorRadiusDeg(&cfg, tight, s)
	if !(rMany < rFew) {
		t.Errorf("more rings did not shrink the estimate: %v vs %v", rMany, rFew)
	}
	if !(rTight < rFew) {
		t.Errorf("tighter rings did not shrink the estimate: %v vs %v", rTight, rFew)
	}
	if ErrorRadiusDeg(&cfg, nil, s) != 180 {
		t.Error("no rings should give the maximal radius")
	}
}

func TestErrorRadiusCalibration(t *testing.T) {
	// The self-reported radius should be the right order of magnitude:
	// across trials, the realized error's 68% containment should sit
	// within a factor of a few of the mean estimate.
	cfg := DefaultConfig()
	root := xrand.New(11)
	var errs []float64
	var estimates []float64
	for trial := 0; trial < 40; trial++ {
		rng := root.Split(uint64(trial))
		s := geom.FromSpherical(rng.Uniform(0, geom.Rad(60)), rng.Uniform(0, 2*math.Pi))
		rings := syntheticRings(s, 120, 0.02, 0, rng)
		res := Localize(&cfg, rings, rng)
		if !res.OK {
			continue
		}
		errs = append(errs, geom.Deg(geom.AngleBetween(res.Dir, s)))
		estimates = append(estimates, ErrorRadiusDeg(&cfg, rings, res.Dir))
	}
	if len(errs) < 30 {
		t.Fatal("too many localization failures")
	}
	var meanEst, meanErr float64
	for i := range errs {
		meanEst += estimates[i]
		meanErr += errs[i]
	}
	meanEst /= float64(len(errs))
	meanErr /= float64(len(errs))
	if meanEst <= 0 {
		t.Fatal("non-positive estimate")
	}
	ratio := meanErr / meanEst
	if ratio < 0.2 || ratio > 5 {
		t.Errorf("estimate off by %vx (mean err %v°, mean estimate %v°)", ratio, meanErr, meanEst)
	}
}
