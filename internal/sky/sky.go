// Package sky provides an equal-area pixelation of the visible (upper)
// hemisphere and the rings' log-likelihood surfaces as functions of
// direction. Where internal/localize returns a single best direction with
// a Gaussian error radius, these surfaces capture the full, possibly
// multi-modal likelihood; internal/skymap samples them onto the grids of
// the downlinked payload and its credible regions.
package sky

import (
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
)

// Grid is an equal-area pixelation of the upper hemisphere: NBands
// iso-polar bands, each divided into azimuth pixels in proportion to the
// band's solid angle, so pixel areas are approximately equal.
type Grid struct {
	NBands int
	// bandPix[i] is the number of azimuth pixels in band i.
	bandPix []int
	// bandStart[i] is the index of band i's first pixel.
	bandStart []int
	total     int
}

// NewGrid builds a grid with the given number of polar bands (resolution
// scales as ~2·NBands² pixels; 16 bands ≈ 3°-scale pixels).
func NewGrid(nBands int) *Grid {
	if nBands < 1 {
		panic("sky: need at least one band")
	}
	g := &Grid{NBands: nBands}
	g.bandPix = make([]int, nBands)
	g.bandStart = make([]int, nBands)
	// Band i spans polar angles [iπ/2N, (i+1)π/2N); its solid angle is
	// 2π(cosθ₀ − cosθ₁). Allocate pixels proportionally with at least 1.
	const targetPerBand = 4.0 // pixels per band-equivalent area unit
	for i := 0; i < nBands; i++ {
		t0 := float64(i) / float64(nBands) * math.Pi / 2
		t1 := float64(i+1) / float64(nBands) * math.Pi / 2
		area := 2 * math.Pi * (math.Cos(t0) - math.Cos(t1))
		// Normalize so the first band (smallest) gets a few pixels and the
		// total scales quadratically.
		n := int(math.Round(area / (2 * math.Pi / (targetPerBand * float64(nBands) * float64(nBands)))))
		if n < 1 {
			n = 1
		}
		g.bandPix[i] = n
		g.bandStart[i] = g.total
		g.total += n
	}
	return g
}

// NumPixels returns the pixel count.
func (g *Grid) NumPixels() int { return g.total }

// Dir returns the center direction of pixel i.
func (g *Grid) Dir(i int) geom.Vec {
	band := g.Band(i)
	j := i - g.bandStart[band]
	theta := (float64(band) + 0.5) / float64(g.NBands) * math.Pi / 2
	phi := (float64(j) + 0.5) / float64(g.bandPix[band]) * 2 * math.Pi
	return geom.FromSpherical(theta, phi)
}

// Find returns the pixel containing direction d (clamped to the upper
// hemisphere).
func (g *Grid) Find(d geom.Vec) int {
	theta := geom.Polar(d)
	if theta > math.Pi/2 {
		theta = math.Pi / 2
	}
	band := int(theta / (math.Pi / 2) * float64(g.NBands))
	if band >= g.NBands {
		band = g.NBands - 1
	}
	phi := geom.Azimuth(d)
	if phi < 0 {
		phi += 2 * math.Pi
	}
	j := int(phi / (2 * math.Pi) * float64(g.bandPix[band]))
	if j >= g.bandPix[band] {
		j = g.bandPix[band] - 1
	}
	return g.bandStart[band] + j
}

// PixelSr returns pixel i's solid angle in steradians (exact per band).
func (g *Grid) PixelSr(i int) float64 { return g.BandPixelSr(g.Band(i)) }

// Band returns the polar band containing pixel i.
func (g *Grid) Band(i int) int {
	return sort.Search(g.NBands, func(b int) bool {
		return g.bandStart[b]+g.bandPix[b] > i
	})
}

// BandPixels returns the index of band b's first pixel and its pixel
// count.
func (g *Grid) BandPixels(b int) (start, n int) { return g.bandStart[b], g.bandPix[b] }

// BandPixelSr returns the solid angle in steradians of every pixel of band
// b: PixelSr of any pixel in b.
func (g *Grid) BandPixelSr(b int) float64 {
	t0 := float64(b) / float64(g.NBands) * math.Pi / 2
	t1 := float64(b+1) / float64(g.NBands) * math.Pi / 2
	return 2 * math.Pi * (math.Cos(t0) - math.Cos(t1)) / float64(g.bandPix[b])
}

// LikelihoodEvaluator returns the rings' joint robust log-likelihood as a
// batch function of direction — the continuous surface that
// internal/skymap samples adaptively into the hierarchical payload. It is
// localize.Surface: the rings are copied into columns once per map, and
// directions are scored two at a time by localize's pair kernel.
func LikelihoodEvaluator(cfg *localize.Config, rings []*recon.Ring) func(dirs []geom.Vec, out []float64) {
	return localize.Surface(cfg, rings)
}

// MixtureEvaluator returns a background-aware joint log-likelihood as a
// batch function of direction: eval(dirs, out) sets out[i] to the value at
// dirs[i], to which each ring contributes
// ln[(1−pᵢ)·exp(−pull²/2) + pᵢ·floor], where pᵢ is the ring's background
// probability (e.g. from the background network) and
// floor = exp(−RobustCap/2) is the density a background ring contributes
// anywhere on the sky. With pᵢ = 0 for all rings this reduces to a
// softened version of the robust capped likelihood; with honest (wide)
// ring widths it keeps residual background rings from biasing the map,
// which hard capping alone cannot once pulls shrink below the cap. The
// rings and probabilities are copied into columns when it is called. It
// panics when bkgProb and rings disagree in length.
func MixtureEvaluator(cfg *localize.Config, rings []*recon.Ring, bkgProb []float64) func(dirs []geom.Vec, out []float64) {
	if len(bkgProb) != len(rings) {
		panic("sky: bkgProb length mismatch")
	}
	return newMixture(cfg.RobustCap, rings, bkgProb).eval
}

// mixture is the columnar form of a ring set for the mixture surface: the
// ring axis, η and dη, and each ring's two mixture constants q = 1−p and
// pf = p·floor, as contiguous float64 columns. The constants are computed
// once per ring with the formula's own operations, so they have the bits
// a per-pair evaluation would give them.
type mixture struct {
	x, y, z, eta, deta, q, pf []float64
}

func newMixture(robustCap float64, rings []*recon.Ring, bkgProb []float64) *mixture {
	floor := math.Exp(-robustCap / 2)
	// Even a ring the classifier is sure about has some probability of
	// being mis-reconstructed junk; this floor keeps any single ring from
	// vetoing a sky region outright (the mixture analogue of hard capping).
	const pMin = 0.02
	n := len(rings)
	cols := make([]float64, 7*n)
	m := &mixture{
		x:    cols[0*n : 1*n : 1*n],
		y:    cols[1*n : 2*n : 2*n],
		z:    cols[2*n : 3*n : 3*n],
		eta:  cols[3*n : 4*n : 4*n],
		deta: cols[4*n : 5*n : 5*n],
		q:    cols[5*n : 6*n : 6*n],
		pf:   cols[6*n : 7*n : 7*n],
	}
	for j, r := range rings {
		p := pMin + (1-pMin)*bkgProb[j]
		m.x[j], m.y[j], m.z[j] = r.Axis.X, r.Axis.Y, r.Axis.Z
		m.eta[j], m.deta[j] = r.Eta, r.DEta
		m.q[j], m.pf[j] = 1-p, p*floor
	}
	return m
}

// at is the scalar loop: the surface at d, summed in ring order, with the
// pull in Dot's order. It is the portable path and the reference the
// amd64 kernel reproduces bit for bit.
func (m *mixture) at(d geom.Vec) float64 {
	var ll float64
	for j := range m.eta {
		pull := (d.X*m.x[j] + d.Y*m.y[j] + d.Z*m.z[j] - m.eta[j]) / m.deta[j]
		ll += math.Log(m.q[j]*math.Exp(-pull*pull/2) + m.pf[j])
	}
	return ll
}

// eval sets out[i] to the surface at dirs[i]: quads of directions through
// the kernel where it runs, the scalar loop elsewhere. A value does not
// depend on the directions evaluated with it, so any split of dirs gives
// the same bits.
func (m *mixture) eval(dirs []geom.Vec, out []float64) {
	out = out[:len(dirs)]
	for i := m.quads(dirs, out); i < len(dirs); i++ {
		out[i] = m.at(dirs[i])
	}
}
