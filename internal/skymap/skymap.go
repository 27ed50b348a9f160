// Package skymap renders posterior sky surfaces into downlink-grade
// payloads: a hierarchical equal-area pixelization (coarse bands over the
// whole visible hemisphere, fine tiles only where the posterior
// concentrates), log-probability quantized to uint8/uint16 with a per-map
// scale, and the tempered 68%/90% credible contours embedded in the
// header. This is the product a GRB telemetry link actually carries —
// compare the HEALPix maps attached to GCN notices — sampled from the
// likelihood surfaces of internal/sky.
//
// Determinism is the load-bearing contract: Build is a pure function of
// (evaluator, options) at any worker count, and Encode is a pure function
// of the map, so the serving fleet can cache payloads exactly and a flight
// journal replay reproduces live alert maps bitwise.
package skymap

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/par"
	"repro/internal/recon"
	"repro/internal/sky"
)

// Defaults and format bounds. The bounds are enforced by Decode so a
// hostile payload cannot request an enormous grid allocation.
const (
	// DefaultCoarseBands is the whole-sky context layer resolution
	// (~4·bands² pixels; 8 bands ≈ 256 pixels ≈ 9°-scale).
	DefaultCoarseBands = 8
	// DefaultRefineFactor multiplies the band count for the fine layer
	// (8×4 = 32 bands ≈ 2°-scale pixels near the mode).
	DefaultRefineFactor = 4
	// DefaultMaxTiles caps how many coarse pixels are refined.
	DefaultMaxTiles = 32
	// DefaultRefineFraction is the coarse posterior mass the refined tiles
	// must cover (tile count permitting).
	DefaultRefineFraction = 0.999
	// DefaultDynamicRange is how many natural-log units below the peak the
	// quantization floor sits; density further down clips to the floor.
	DefaultDynamicRange = 18.0
	// DefaultTemperature is the empirically fitted posterior-tempering
	// systematic inflation. EXPERIMENTS.md "Credible-region coverage"
	// measures it on this payload: untempered regions undercover, and the
	// fit on both inference backends is T=16, whose maps cover 0.68 and
	// 0.93 at the nominal 0.68 and 0.90.
	DefaultTemperature = 16.0

	// MaxCoarseBands and MaxRefineFactor bound what Decode accepts.
	MaxCoarseBands  = 32
	MaxRefineFactor = 8
)

// Options configures Build. The zero value of every field means the
// documented default.
type Options struct {
	// CoarseBands is the context layer's polar band count [2, MaxCoarseBands].
	CoarseBands int
	// RefineFactor multiplies CoarseBands for the fine layer
	// [1, MaxRefineFactor]; 1 disables genuine refinement.
	RefineFactor int
	// MaxTiles caps the number of refined coarse pixels.
	MaxTiles int
	// RefineFraction is the coarse posterior mass to cover with fine tiles
	// (0 < f ≤ 1); refinement stops at MaxTiles regardless.
	RefineFraction float64
	// DynamicRange is the quantization depth in natural-log units below
	// the peak.
	DynamicRange float64
	// Temperature divides the log-likelihood before quantization
	// (posterior tempering); 0 means DefaultTemperature, 1 means the
	// statistical-only map, and negative values panic.
	Temperature float64
	// Workers caps evaluation parallelism (0 = process default, 1 =
	// serial). The map is bitwise-identical for any value.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.CoarseBands == 0 {
		o.CoarseBands = DefaultCoarseBands
	}
	if o.RefineFactor == 0 {
		o.RefineFactor = DefaultRefineFactor
	}
	if o.MaxTiles == 0 {
		o.MaxTiles = DefaultMaxTiles
	}
	if o.RefineFraction == 0 {
		o.RefineFraction = DefaultRefineFraction
	}
	if o.DynamicRange == 0 {
		o.DynamicRange = DefaultDynamicRange
	}
	if o.Temperature == 0 {
		o.Temperature = DefaultTemperature
	}
	if o.CoarseBands < 2 || o.CoarseBands > MaxCoarseBands {
		panic("skymap: CoarseBands out of range")
	}
	if o.RefineFactor < 1 || o.RefineFactor > MaxRefineFactor {
		panic("skymap: RefineFactor out of range")
	}
	if o.Temperature < 0 {
		panic("skymap: negative temperature")
	}
	if o.RefineFraction < 0 || o.RefineFraction > 1 {
		panic("skymap: RefineFraction out of range")
	}
	if o.MaxTiles < 1 {
		o.MaxTiles = 1
	}
	if o.DynamicRange < 0 {
		panic("skymap: negative dynamic range")
	}
	return o
}

// Tile is one refined coarse pixel: quantized fine-layer values for every
// fine pixel whose center falls inside coarse pixel Coarse, in ascending
// fine-index order. The fine indices themselves are not stored — the
// coarse→fine assignment is a pure function of the two grids, so the
// decoder recomputes it.
type Tile struct {
	Coarse int
	Values []uint16
}

// Map is a hierarchical quantized posterior sky map: the decoded (or
// freshly built) form of a payload. All header fields are stored at the
// serialized float32 precision so encode→decode→encode is byte-identical.
type Map struct {
	// CoarseBands and RefineFactor fix both grid geometries.
	CoarseBands  int
	RefineFactor int
	// Temperature is the tempering divisor baked into the values (1 =
	// statistical-only).
	Temperature float32
	// LogFloor is the quantization floor: quantized value 0 means the log
	// density sits LogFloor (< 0) natural-log units below the peak.
	LogFloor float32
	// PeakDir is the maximum-density pixel center (unit vector).
	PeakDir [3]float32
	// Thr68/Thr90 are the credible contours embedded for the downlink
	// consumer: a direction is inside the p region iff its relative log
	// density is ≥ the threshold. Area68/Area90 are the region areas in
	// square degrees.
	Thr68, Thr90   float32
	Area68, Area90 float32
	// Coarse holds one uint8 per coarse pixel (whole-sky context layer).
	Coarse []uint8
	// Tiles are the refined coarse pixels, ascending by Coarse index.
	Tiles []Tile

	// Derived lookup state (set by Build and Decode, never serialized):
	// the shared grids and tile membership of the map's geometry, and the
	// cells ranked for the credible contours.
	*geometry
	rank ranking
}

// geometry is the grid pair of one (CoarseBands, RefineFactor) and its
// tile membership table: a pure function of the two numbers, shared
// read-only by the maps that use it.
type geometry struct {
	coarse, fine *sky.Grid
	members      [][]int // tile membership: see tileMembers
}

func newGeometry(coarseBands, refineFactor int) *geometry {
	coarse := sky.NewGrid(coarseBands)
	fine := sky.NewGrid(coarseBands * refineFactor)
	return &geometry{coarse: coarse, fine: fine, members: tileMembers(coarse, fine)}
}

// defaultGeometry is built once per process: every flown map and every
// payload decoded on the ground uses it.
var defaultGeometry = sync.OnceValue(func() *geometry {
	return newGeometry(DefaultCoarseBands, DefaultRefineFactor)
})

// geometryOf returns the geometry of (coarseBands, refineFactor). Only the
// default one is kept: Decode accepts 248 geometries, the largest table is
// about 2 MB, and a stream of payloads must not be able to pin them.
func geometryOf(coarseBands, refineFactor int) *geometry {
	if coarseBands == DefaultCoarseBands && refineFactor == DefaultRefineFactor {
		return defaultGeometry()
	}
	return newGeometry(coarseBands, refineFactor)
}

// finish ranks the cells; the geometry must be set.
func (m *Map) finish() {
	m.rank = m.rankCells()
}

// fineValue returns fine pixel j's quantized value when j lies in a
// refined tile. Membership is tileMembers' assignment — the coarse pixel
// containing j's center — so j sits in that tile's ascending member list.
func (m *Map) fineValue(j int) (uint16, bool) {
	c := m.coarse.Find(m.fine.Dir(j))
	ti, ok := slices.BinarySearchFunc(m.Tiles, c, func(t Tile, c int) int { return cmp.Compare(t.Coarse, c) })
	if !ok {
		return 0, false
	}
	k, ok := slices.BinarySearch(m.members[c], j)
	if !ok || k >= len(m.Tiles[ti].Values) {
		return 0, false
	}
	return m.Tiles[ti].Values[k], true
}

// tileMembers assigns every fine pixel to the coarse pixel containing its
// center: members[c] lists c's fine pixels in ascending fine-index order.
// The assignment is a pure function of the two grids.
func tileMembers(coarse, fine *sky.Grid) [][]int {
	members := make([][]int, coarse.NumPixels())
	for j := 0; j < fine.NumPixels(); j++ {
		c := coarse.Find(fine.Dir(j))
		members[c] = append(members[c], j)
	}
	return members
}

// quantize maps a relative log density v ∈ [floor, 0] onto [0, qmax].
// NaN and everything at or below the floor clip to 0; 0 and above clip to
// qmax.
func quantize(v, floor float64, qmax int) int {
	if !(v > floor) { // NaN-safe
		return 0
	}
	if v >= 0 {
		return qmax
	}
	q := int(math.Round((v - floor) / -floor * float64(qmax)))
	if q < 0 {
		q = 0
	}
	if q > qmax {
		q = qmax
	}
	return q
}

// dequantize inverts quantize: q=0 → floor, q=qmax → 0.
func dequantize(q, qmax int, floor float64) float64 {
	return floor * (1 - float64(q)/float64(qmax))
}

// Build evaluates the log-likelihood surface eval hierarchically and
// quantizes it into a Map: every coarse pixel is evaluated, then the
// smallest set of coarse pixels covering RefineFraction of the coarse
// posterior mass (at most MaxTiles, ties broken by pixel index) is
// re-evaluated on the fine grid. eval(dirs, out) must set out[i] to the
// log-likelihood at dirs[i], independently of the other directions; each
// worker shard passes it one contiguous slice of a layer's pixel centers.
// The result is a pure function of (eval, opts) — identical at any
// Workers value.
func Build(eval func(dirs []geom.Vec, out []float64), opts Options) *Map {
	opts = opts.withDefaults()
	floor := -opts.DynamicRange
	m := &Map{
		CoarseBands:  opts.CoarseBands,
		RefineFactor: opts.RefineFactor,
		Temperature:  float32(opts.Temperature),
		LogFloor:     float32(floor),
		geometry:     geometryOf(opts.CoarseBands, opts.RefineFactor),
	}
	coarse, fine := m.coarse, m.fine
	pool := par.NewPool(opts.Workers)
	temp := opts.Temperature
	// layer sets vals[i] to the tempered log-likelihood at dirs[i], each
	// value in its fixed slot.
	layer := func(dirs []geom.Vec, vals []float64) {
		pool.ForRange(context.Background(), len(dirs), func(_, lo, hi int) {
			eval(dirs[lo:hi], vals[lo:hi])
			for i := lo; i < hi; i++ {
				vals[i] /= temp
			}
		})
	}

	// Coarse layer: every pixel center.
	dirs := make([]geom.Vec, coarse.NumPixels())
	for i := range dirs {
		dirs[i] = coarse.Dir(i)
	}
	cl := make([]float64, len(dirs))
	layer(dirs, cl)

	// Refinement selection: coarse posterior mass, highest first, ties by
	// pixel index.
	mx := math.Inf(-1)
	for _, v := range cl {
		if v > mx {
			mx = v
		}
	}
	if math.IsInf(mx, -1) || math.IsNaN(mx) {
		mx = 0 // degenerate surface: fall through to a flat selection
	}
	mass := make([]float64, len(cl))
	var total float64
	for i, v := range cl {
		mass[i] = math.Exp(v-mx) * coarse.PixelSr(i)
		total += mass[i]
	}
	if !(total > 0) {
		for i := range mass {
			mass[i] = coarse.PixelSr(i)
		}
		total = 2 * math.Pi
	}
	order := make([]int, len(mass))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ma, mb := mass[order[a]], mass[order[b]]
		if ma != mb {
			return ma > mb
		}
		return order[a] < order[b]
	})
	var refined []int
	var acc float64
	for _, i := range order {
		if len(refined) >= opts.MaxTiles {
			break
		}
		refined = append(refined, i)
		acc += mass[i]
		if acc >= opts.RefineFraction*total {
			break
		}
	}
	sort.Ints(refined)

	// Fine layer: evaluate only the member pixels of refined tiles.
	members := m.members
	var fineIdx []int
	for _, c := range refined {
		fineIdx = append(fineIdx, members[c]...)
	}
	fineDirs := make([]geom.Vec, len(fineIdx))
	for k, j := range fineIdx {
		fineDirs[k] = fine.Dir(j)
	}
	fl := make([]float64, len(fineIdx))
	layer(fineDirs, fl)

	// Global peak: the maximum evaluated density. Fine pixels win ties —
	// they are the resolution the notice quotes.
	peak := mx
	peakFine := -1
	for k, v := range fl {
		if v > peak {
			peak, peakFine = v, fineIdx[k]
		}
	}
	peakCoarse := 0
	if peakFine < 0 {
		for i, v := range cl {
			if v == peak {
				peakCoarse = i
				break
			}
		}
	}
	if math.IsInf(peak, -1) || math.IsNaN(peak) {
		peak = 0
	}

	// Quantize both layers relative to the peak.
	m.Coarse = make([]uint8, len(cl))
	for i, v := range cl {
		m.Coarse[i] = uint8(quantize(v-peak, floor, 255))
	}
	k := 0
	for _, c := range refined {
		tile := Tile{Coarse: c, Values: make([]uint16, len(members[c]))}
		for kk := range tile.Values {
			tile.Values[kk] = uint16(quantize(fl[k]-peak, floor, 65535))
			k++
		}
		m.Tiles = append(m.Tiles, tile)
	}

	var pd geom.Vec
	if peakFine >= 0 {
		pd = fine.Dir(peakFine)
	} else {
		pd = coarse.Dir(peakCoarse)
	}
	m.PeakDir = [3]float32{float32(pd.X), float32(pd.Y), float32(pd.Z)}

	m.finish()

	// Embed the tempered credible contours, computed from the *quantized*
	// data so the decoder reproduces them exactly.
	thr, area := m.contours(0.68, 0.90)
	m.Thr68, m.Area68 = float32(thr[0]), float32(area[0])
	m.Thr90, m.Area90 = float32(thr[1]), float32(area[1])
	return m
}

// FromRings builds the downlink map for a localized burst from its
// surviving rings: the background-aware mixture surface when per-ring
// background probabilities are supplied, the plain robust likelihood
// otherwise.
func FromRings(cfg *localize.Config, rings []*recon.Ring, bkgProb []float64, opts Options) *Map {
	var eval func([]geom.Vec, []float64)
	if bkgProb != nil {
		eval = sky.MixtureEvaluator(cfg, rings, bkgProb)
	} else {
		eval = sky.LikelihoodEvaluator(cfg, rings)
	}
	return Build(eval, opts)
}

// cell is one effective-resolution element of the hierarchical map: a fine
// pixel inside a refined tile, or an unrefined coarse pixel.
type cell struct {
	logd float64 // relative log density (≤ 0)
	sr   float64 // solid angle
	fine bool
	idx  int
}

// cells lists the map's effective elements in a fixed deterministic order:
// unrefined coarse pixels ascending, then tile fine pixels ascending.
func (m *Map) cells() []cell {
	refined := make(map[int]bool, len(m.Tiles))
	for _, t := range m.Tiles {
		refined[t.Coarse] = true
	}
	floor := float64(m.LogFloor)
	out := make([]cell, 0, len(m.Coarse)-len(m.Tiles)+m.NumFine())
	coarseSr, fineSr := newBandSr(m.coarse), newBandSr(m.fine)
	for i, q := range m.Coarse {
		if refined[i] {
			continue
		}
		out = append(out, cell{logd: dequantize(int(q), 255, floor), sr: coarseSr.of(i), idx: i})
	}
	for _, t := range m.Tiles {
		mem := m.members[t.Coarse]
		for k, q := range t.Values {
			out = append(out, cell{logd: dequantize(int(q), 65535, floor), sr: fineSr.of(mem[k]), fine: true, idx: mem[k]})
		}
	}
	return out
}

// bandSr gives a grid's pixel solid angles from one BandPixelSr value per
// band, remembering the pixel range of the last band it looked up: cells
// asks in ascending runs, so the band search runs once per band change,
// not once per pixel. The values are PixelSr's bit for bit.
type bandSr struct {
	g          *sky.Grid
	sr         []float64 // per band
	band       int
	start, end int // pixel range of band
}

func newBandSr(g *sky.Grid) *bandSr {
	b := &bandSr{g: g, sr: make([]float64, g.NBands)}
	for i := range b.sr {
		b.sr[i] = g.BandPixelSr(i)
	}
	return b
}

// of returns pixel i's solid angle.
func (b *bandSr) of(i int) float64 {
	if i < b.start || i >= b.end {
		b.band = b.g.Band(i)
		start, n := b.g.BandPixels(b.band)
		b.start, b.end = start, start+n
	}
	return b.sr[b.band]
}

const deg2PerSr = (180 / math.Pi) * (180 / math.Pi)

// ranking is a map's cells ranked once by density (ties: fine before
// coarse, then pixel index) with their running sums in rank order:
// mass[i] and sr[i] are the posterior mass and solid angle of cells 0..i.
// It is all a credible contour at any level needs.
type ranking struct {
	logd, mass, sr []float64
}

// rankCells ranks the map's cells for the contours.
func (m *Map) rankCells() ranking {
	cs := m.cells()
	// A strict total order: any sort gives the same ranking.
	slices.SortFunc(cs, func(a, b cell) int {
		switch {
		case a.logd != b.logd:
			return cmp.Compare(b.logd, a.logd)
		case a.fine != b.fine:
			if a.fine {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.idx, b.idx)
	})
	n := len(cs)
	cols := make([]float64, 3*n)
	r := ranking{logd: cols[:n:n], mass: cols[n : 2*n : 2*n], sr: cols[2*n:]}
	var acc, sr float64
	for i, c := range cs {
		// The conversion rounds the product on its own, so no
		// architecture fuses it into the sum.
		acc += float64(math.Exp(c.logd) * c.sr)
		sr += c.sr
		r.logd[i], r.mass[i], r.sr[i] = c.logd, acc, sr
	}
	return r
}

// contours computes the highest-posterior-density credible contour at each
// level from the quantized data: for each level p, the ranked cells are
// included until their posterior mass reaches p. thr[k] is the relative
// log-density threshold of the last cell included at levels[k], areaDeg2[k]
// the included area in square degrees.
func (m *Map) contours(levels ...float64) (thr, areaDeg2 []float64) {
	r := m.rank
	n := len(r.logd)
	for _, p := range levels {
		var t, sr float64
		if n > 0 {
			// The running mass never decreases, so the first cell whose
			// running mass reaches p·total is found by bisection; when no
			// cell does (p > 1 or NaN), every cell is included.
			target := p * r.mass[n-1]
			i := sort.Search(n, func(i int) bool { return r.mass[i] >= target })
			if i == n {
				i = n - 1
			}
			t, sr = r.logd[i], r.sr[i]
		}
		thr = append(thr, t)
		areaDeg2 = append(areaDeg2, sr*deg2PerSr)
	}
	return thr, areaDeg2
}

// CredibleAreaDeg2 returns the area of the p credible region in square
// degrees, recomputed from the quantized payload (for p = 0.68 / 0.90 it
// equals the embedded Area68/Area90 by construction).
func (m *Map) CredibleAreaDeg2(p float64) float64 {
	_, area := m.contours(p)
	return area[0]
}

// LogDensity returns the relative log posterior density (≤ 0, peak = 0)
// at direction d: the fine layer where d falls inside an evaluated fine
// pixel, the coarse context layer elsewhere.
func (m *Map) LogDensity(d geom.Vec) float64 {
	if q, ok := m.fineValue(m.fine.Find(d)); ok {
		return dequantize(int(q), 65535, float64(m.LogFloor))
	}
	return dequantize(int(m.Coarse[m.coarse.Find(d)]), 255, float64(m.LogFloor))
}

// Contains reports whether direction d lies inside the p credible region.
func (m *Map) Contains(d geom.Vec, p float64) bool {
	thr, _ := m.contours(p)
	return m.LogDensity(d) >= thr[0]
}

// Peak returns the map's maximum-density direction.
func (m *Map) Peak() geom.Vec {
	return geom.Vec{X: float64(m.PeakDir[0]), Y: float64(m.PeakDir[1]), Z: float64(m.PeakDir[2])}
}

// NumFine returns the total fine-pixel count across tiles.
func (m *Map) NumFine() int {
	n := 0
	for _, t := range m.Tiles {
		n += len(t.Values)
	}
	return n
}
