package skymap

// Tests of a map's derived state: the geometry shared across maps and the
// cells ranked once per map.

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/sky"
	"repro/internal/xrand"
)

// rerankContours is contours as it read before the ranking was kept in
// the map's derived state: every call re-ranks the cells and recomputes
// their masses. It is the reference for Contains and CredibleAreaDeg2.
func rerankContours(m *Map, levels ...float64) (thr, areaDeg2 []float64) {
	cs := m.cells()
	sort.Slice(cs, func(a, b int) bool {
		if cs[a].logd != cs[b].logd {
			return cs[a].logd > cs[b].logd
		}
		if cs[a].fine != cs[b].fine {
			return cs[a].fine
		}
		return cs[a].idx < cs[b].idx
	})
	mass := make([]float64, len(cs))
	var total float64
	for i, c := range cs {
		mass[i] = math.Exp(c.logd) * c.sr
		total += mass[i]
	}
	for _, p := range levels {
		var acc, sr, t float64
		for i, c := range cs {
			acc += mass[i]
			sr += c.sr
			t = c.logd
			if acc >= p*total {
				break
			}
		}
		thr = append(thr, t)
		areaDeg2 = append(areaDeg2, sr*deg2PerSr)
	}
	return thr, areaDeg2
}

// TestRankedContoursMatchReranking: Contains and CredibleAreaDeg2, which
// read the ranking kept in the map, answer as the re-ranking code did, on
// built and decoded maps, over a sweep of levels and directions.
func TestRankedContoursMatchReranking(t *testing.T) {
	cfg := localize.DefaultConfig()
	s := geom.FromSpherical(geom.Rad(35), geom.Rad(-20))
	rng := xrand.New(12)
	rings := testRings(s, 200, 0.04, rng)
	probs := make([]float64, len(rings))
	for i := range probs {
		probs[i] = rng.Float64()
	}
	statMap, _ := buildTestMap(t, Options{Temperature: 1})
	maps := map[string]*Map{
		"built":   FromRings(&cfg, rings, probs, Options{}),
		"no-ML":   FromRings(&cfg, rings, nil, Options{CoarseBands: 6, RefineFactor: 3}),
		"T=1":     statMap,
		"flat":    Build(perPixel(func(geom.Vec) float64 { return 0 }), Options{}),
		"decoded": nil,
	}
	d, err := Decode(maps["built"].Encode())
	if err != nil {
		t.Fatal(err)
	}
	maps["decoded"] = d

	levels := []float64{0, 1e-12, 0.5, 0.68, 0.9, 0.95, 0.999, 1, 1.5, -0.25, math.NaN(), math.Inf(1)}
	for i := 0; i < 60; i++ {
		levels = append(levels, rng.Float64())
	}
	var dirs []geom.Vec
	fine := sky.NewGrid(DefaultCoarseBands * DefaultRefineFactor * 2)
	for i := 0; i < fine.NumPixels(); i += 7 {
		dirs = append(dirs, fine.Dir(i))
	}
	for name, m := range maps {
		for _, p := range levels {
			thr, area := rerankContours(m, p)
			if got := m.CredibleAreaDeg2(p); math.Float64bits(got) != math.Float64bits(area[0]) {
				t.Errorf("%s p=%v: CredibleAreaDeg2 %v, re-ranked %v", name, p, got, area[0])
			}
			for _, dir := range dirs {
				if got, want := m.Contains(dir, p), m.LogDensity(dir) >= thr[0]; got != want {
					t.Errorf("%s p=%v d=%v: Contains %t, re-ranked %t", name, p, dir, got, want)
				}
			}
		}
	}
}

// TestGeometryMatchesFreshTables: the grids and membership table a map
// gets equal freshly built ones, for the defaults, the largest geometry
// Decode accepts and a sample in between; only the default geometry is
// kept and shared.
func TestGeometryMatchesFreshTables(t *testing.T) {
	sample := [][2]int{
		{DefaultCoarseBands, DefaultRefineFactor}, {MaxCoarseBands, MaxRefineFactor},
		{2, 1}, {3, 8}, {5, 3}, {17, 2},
	}
	for _, s := range sample {
		bands, refine := s[0], s[1]
		g := geometryOf(bands, refine)
		coarse, fine := sky.NewGrid(bands), sky.NewGrid(bands*refine)
		if !reflect.DeepEqual(g.coarse, coarse) || !reflect.DeepEqual(g.fine, fine) {
			t.Errorf("(%d, %d): grids differ from fresh ones", bands, refine)
		}
		if !reflect.DeepEqual(g.members, tileMembers(coarse, fine)) {
			t.Errorf("(%d, %d): membership table differs from a fresh tileMembers", bands, refine)
		}
		isDefault := bands == DefaultCoarseBands && refine == DefaultRefineFactor
		if shared := geometryOf(bands, refine) == g; shared != isDefault {
			t.Errorf("(%d, %d): geometry shared %t, want %t", bands, refine, shared, isDefault)
		}
	}
}

// TestConcurrentBuildDecode: maps built and decoded from several
// goroutines at once, in the default and other geometries, give the
// serially built payloads. Run under -race it checks that the shared
// default geometry is only read.
func TestConcurrentBuildDecode(t *testing.T) {
	cfg := localize.DefaultConfig()
	rings := testRings(geom.FromSpherical(geom.Rad(30), geom.Rad(75)), 120, 0.03, xrand.New(11))
	opts := []Options{
		{}, {CoarseBands: 4, RefineFactor: 2}, {CoarseBands: 6, RefineFactor: 3},
		{CoarseBands: 3, RefineFactor: 1}, {CoarseBands: 5, RefineFactor: 2, Workers: 2},
		{CoarseBands: 12, RefineFactor: 5},
	}
	want := make([][]byte, len(opts))
	for i, o := range opts {
		want[i] = FromRings(&cfg, rings, nil, o).Encode()
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range opts {
				i := (g + k) % len(opts)
				got := FromRings(&cfg, rings, nil, opts[i]).Encode()
				if !bytes.Equal(got, want[i]) {
					t.Errorf("goroutine %d: options %+v built another payload", g, opts[i])
				}
				d, err := Decode(want[i])
				if err != nil {
					t.Errorf("goroutine %d: decode: %v", g, err)
					continue
				}
				if !bytes.Equal(d.Encode(), want[i]) || float32(d.CredibleAreaDeg2(0.9)) != d.Area90 {
					t.Errorf("goroutine %d: options %+v: decoded map differs", g, opts[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
