package sky_test

// These tests check the posterior that the downlinked payload makes of
// this package's likelihood surface: its normalization, its credible
// regions and their widening under tempering. They sit in the external
// test package because internal/skymap imports sky.

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/sky"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

// statMap builds the statistical-only (T = 1) payload of rings through s.
func statMap(s geom.Vec, n int, noise float64, seed uint64) *skymap.Map {
	cfg := localize.DefaultConfig()
	rings := sky.RingsAround(s, n, noise, xrand.New(seed))
	return skymap.FromRings(&cfg, rings, nil, skymap.Options{Temperature: 1})
}

// TestPosteriorNormalized: the flown payload normalizes the posterior to
// its peak, so the relative log density is 0 at the peak and lies in
// [LogFloor, 0] everywhere else, and its credible regions nest. (At T = 1
// these rings put every level's region in one fine pixel.)
func TestPosteriorNormalized(t *testing.T) {
	cfg := localize.DefaultConfig()
	rings := sky.RingsAround(geom.Vec{Z: 1}, 40, 0.02, xrand.New(4))
	m := skymap.FromRings(&cfg, rings, nil, skymap.Options{})
	if ld := m.LogDensity(m.Peak()); ld != 0 {
		t.Errorf("log density %v at the peak, want 0", ld)
	}
	// The fine grid's pixel centers visit every stored value: each fine
	// pixel, and each coarse pixel through the fine centers it contains.
	g := sky.NewGrid(m.CoarseBands * m.RefineFactor)
	for i := 0; i < g.NumPixels(); i++ {
		if ld := m.LogDensity(g.Dir(i)); ld > 0 || ld < float64(m.LogFloor) || math.IsNaN(ld) {
			t.Fatalf("log density %v at pixel %d, outside [%v, 0]", ld, i, m.LogFloor)
		}
	}
	// Credible regions nest: 50% ⊆ 90%, and the flown 68% ⊆ 90%.
	if a50, a90 := m.CredibleAreaDeg2(0.5), m.CredibleAreaDeg2(0.9); a50 > a90 {
		t.Errorf("50%% region (%v deg²) larger than 90%% (%v deg²)", a50, a90)
	}
	if m.Thr68 < m.Thr90 {
		t.Errorf("68%% threshold %v below the 90%% threshold %v", m.Thr68, m.Thr90)
	}
}

func TestTemperedWidensRegions(t *testing.T) {
	cfg := localize.DefaultConfig()
	s := geom.FromSpherical(geom.Rad(25), geom.Rad(60))
	rings := sky.RingsAround(s, 100, 0.03, xrand.New(5))
	m1 := skymap.FromRings(&cfg, rings, nil, skymap.Options{Temperature: 1})
	m8 := skymap.FromRings(&cfg, rings, nil, skymap.Options{Temperature: 8})
	if a1, a8 := m1.CredibleAreaDeg2(0.9), m8.CredibleAreaDeg2(0.9); a8 <= a1 {
		t.Errorf("tempering did not widen the region: %v vs %v", a8, a1)
	}
	// The peak does not move under tempering.
	if m1.PeakDir != m8.PeakDir {
		t.Errorf("tempering moved the peak: %v vs %v", m1.PeakDir, m8.PeakDir)
	}
}

func TestCredibleAreaShrinksWithMoreRings(t *testing.T) {
	s := geom.FromSpherical(geom.Rad(20), geom.Rad(-40))
	few := statMap(s, 6, 0.15, 2)
	many := statMap(s, 300, 0.15, 3)
	if aMany, aFew := many.CredibleAreaDeg2(0.9), few.CredibleAreaDeg2(0.9); aMany >= aFew {
		t.Errorf("more rings did not shrink the 90%% area: %v vs %v deg²", aMany, aFew)
	}
}

// TestCredibleAreaMonotone property-checks that the credible area never
// shrinks as the requested probability level grows — the defining ordering
// of nested credible regions.
func TestCredibleAreaMonotone(t *testing.T) {
	m := statMap(geom.FromSpherical(geom.Rad(40), geom.Rad(-60)), 50, 0.08, 10)
	f := func(a, b uint16) bool {
		// Two levels in [0, 1) with p1 <= p2.
		p1, p2 := float64(a)/(1<<16), float64(b)/(1<<16)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return m.CredibleAreaDeg2(p1) <= m.CredibleAreaDeg2(p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
