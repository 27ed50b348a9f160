// Package localize infers a single GRB source direction from a set of
// Compton rings (paper §II-B, "Computational Pipeline"). The algorithm has
// the paper's two stages:
//
//   - Approximation: sample a small number of rings, take candidate
//     directions on each sampled ring's surface, and keep the candidate
//     that maximizes the joint robust likelihood of the sample.
//   - Refinement: iterate { gate rings consistent with the current estimate;
//     solve the weighted "almost-linear" least-squares problem
//     min Σ wᵢ (s·cᵢ − ηᵢ)² over s ∈ R³; renormalize s } to convergence.
//
// The gating step is what makes the solver robust to background rings and
// badly reconstructed rings: anything farther than GateSigma ring widths
// from the current estimate contributes nothing to the update.
package localize

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// Config holds the localization parameters.
type Config struct {
	// SampleRings is how many rings the approximation stage samples.
	SampleRings int
	// CandidatesPerRing is how many directions are taken on each sampled
	// ring's surface.
	CandidatesPerRing int
	// GateSigma is the ring-gating threshold κ in units of dη.
	GateSigma float64
	// MaxGateCos caps the gate half-width κ·dη in cosine space, so rings
	// with honestly large widths still only vote near their surface instead
	// of admitting most of the sky.
	MaxGateCos float64
	// RobustCap caps each ring's squared pull in the likelihood, so far-away
	// rings saturate instead of dominating.
	RobustCap float64
	// MaxIters bounds the refinement loop.
	MaxIters int
	// ConvergeRad: refinement stops when the estimate moves less than this
	// angle (radians) in one iteration.
	ConvergeRad float64
	// MinRings is the minimum number of gated rings required to trust a
	// least-squares update; below it the gate is widened.
	MinRings int
	// SkyOnly restricts candidate directions to the upper hemisphere
	// (Earth blocks ADAPT's view from below, §III).
	SkyOnly bool
	// Workers caps the parallelism of the approximation grid search and
	// seed refinement: 0 means the process default (par.DefaultWorkers),
	// 1 forces the serial path. Any value produces bitwise-identical
	// results for a given seed — candidates are scored into fixed index
	// slots and reduced in index order.
	Workers int
}

// DefaultConfig returns the solver settings used by the experiments.
func DefaultConfig() Config {
	return Config{
		SampleRings:       16,
		CandidatesPerRing: 36,
		GateSigma:         3.0,
		MaxGateCos:        0.20,
		RobustCap:         9.0,
		MaxIters:          25,
		ConvergeRad:       geom.Rad(0.02),
		MinRings:          5,
		SkyOnly:           true,
	}
}

// Result is the output of a localization run.
type Result struct {
	// Dir is the inferred unit source direction.
	Dir geom.Vec
	// RingsUsed is the number of rings inside the final gate.
	RingsUsed int
	// Iterations is the number of refinement iterations performed.
	Iterations int
	// Converged reports whether the estimate moved less than ConvergeRad on
	// the final iteration.
	Converged bool
	// OK is false when there were not enough rings to localize at all.
	OK bool
}

// ErrorDeg returns the angular separation in degrees between the result and
// the true direction.
func (r Result) ErrorDeg(truth geom.Vec) float64 {
	return geom.Deg(geom.AngleBetween(r.Dir, truth))
}

// LogLikelihood returns the joint robust log-likelihood of direction s given
// the rings: Σ −min(pull², cap)/2. Higher is better.
func LogLikelihood(cfg *Config, rings []*recon.Ring, s geom.Vec) float64 {
	return newView(rings).logLik(cfg.RobustCap, s)
}

// Surface returns the rings' joint robust log-likelihood as a batch
// function of direction, for scoring many directions against one ring set
// (a sky map's pixels): eval(dirs, out) sets out[i] to the score of
// dirs[i], two directions per logLikPair call and an odd last one through
// the scalar loop. It copies cfg.RobustCap and the rings' columns when
// called; each score equals LogLikelihood bit for bit, whatever it is
// batched with.
func Surface(cfg *Config, rings []*recon.Ring) func(dirs []geom.Vec, out []float64) {
	v, robustCap := newView(rings), cfg.RobustCap
	return func(dirs []geom.Vec, out []float64) {
		out = out[:len(dirs)]
		i := 0
		for ; i+1 < len(dirs); i += 2 {
			out[i], out[i+1] = v.logLikPair(robustCap, dirs[i], dirs[i+1])
		}
		if i < len(dirs) {
			out[i] = v.logLik(robustCap, dirs[i])
		}
	}
}

// view is the columnar form of a ring set: the ring axis, η and dη as
// contiguous float64 columns, nothing else. Scoring, gating, least squares
// and the error radius read only these five numbers per ring, so one view
// built per call keeps them in cache where the ring structs (hits and
// ground truth included) would not.
type view struct {
	x, y, z, eta, deta []float64
}

func newView(rings []*recon.Ring) *view {
	n := len(rings)
	cols := make([]float64, 5*n)
	v := &view{
		x:    cols[0*n : 1*n : 1*n],
		y:    cols[1*n : 2*n : 2*n],
		z:    cols[2*n : 3*n : 3*n],
		eta:  cols[3*n : 4*n : 4*n],
		deta: cols[4*n : 5*n : 5*n],
	}
	for i, r := range rings {
		v.x[i], v.y[i], v.z[i] = r.Axis.X, r.Axis.Y, r.Axis.Z
		v.eta[i], v.deta[i] = r.Eta, r.DEta
	}
	return v
}

// ring returns ring i's geometry.
func (v *view) ring(i int) geom.Ring {
	return geom.Ring{Axis: geom.Vec{X: v.x[i], Y: v.y[i], Z: v.z[i]}, Eta: v.eta[i], DEta: v.deta[i]}
}

// residual is geom.Ring.Residual for ring i: s·c − η, summed in Dot's order.
func (v *view) residual(i int, s geom.Vec) float64 {
	return s.X*v.x[i] + s.Y*v.y[i] + s.Z*v.z[i] - v.eta[i]
}

// logLik is the scalar scoring loop: Σ −min(pull², robustCap)/2 in ring
// order. It is the portable path and the reference the amd64 kernel in
// logLikPair reproduces bit for bit.
func (v *view) logLik(robustCap float64, s geom.Vec) float64 {
	var ll float64
	for i := range v.eta {
		p := v.residual(i, s) / v.deta[i]
		ll -= math.Min(p*p, robustCap) / 2
	}
	return ll
}

// Approximate picks initial directions by sampling rings and scoring
// candidate directions on their surfaces (paper: "Approximation picks a
// small random sample of incoming Compton rings and considers the set of
// candidate source directions that lie close to at least one of these
// rings, choosing the direction s₀ that maximizes the joint likelihood of
// the sample"). It returns up to maxSeeds well-separated candidates in
// decreasing likelihood order; refining several seeds and keeping the most
// likely final answer is what makes the stage robust when most rings are
// background.
func Approximate(cfg *Config, rings []*recon.Ring, rng *xrand.RNG, maxSeeds int) []geom.Vec {
	return newView(rings).approximate(cfg, rng, maxSeeds)
}

func (v *view) approximate(cfg *Config, rng *xrand.RNG, maxSeeds int) []geom.Vec {
	n := len(v.eta)
	if n == 0 || maxSeeds < 1 {
		return nil
	}
	nSample := cfg.SampleRings
	if nSample > n {
		nSample = n
	}

	// Collect the candidate grid first (the RNG stream must stay serial),
	// then score it on the worker pool: each candidate's joint likelihood
	// over all rings is independent, and this candidate × ring loop is the
	// localization hot spot. Scores land in fixed index slots, so the
	// parallel path is bitwise-identical to the serial one.
	var cands []scored
	buf := make([]geom.Vec, 0, cfg.CandidatesPerRing)
	for _, i := range rng.Perm(n)[:nSample] {
		buf = v.ring(i).Points(buf[:0], cfg.CandidatesPerRing, rng.Uniform(0, 2*math.Pi))
		for _, cand := range buf {
			if cfg.SkyOnly && cand.Z < -0.05 {
				continue
			}
			cands = append(cands, scored{dir: cand})
		}
	}
	par.NewPool(cfg.Workers).ForRange(context.Background(), len(cands), func(_, lo, hi int) {
		v.score(cfg.RobustCap, cands[lo:hi])
	})
	sort.Slice(cands, func(i, j int) bool { return cands[i].ll > cands[j].ll })

	// Keep the best candidates that are mutually separated, so the seeds
	// explore distinct likelihood modes instead of one cluster.
	const minSepCos = 0.995 // ~5.7°
	var seeds []geom.Vec
	for _, c := range cands {
		distinct := true
		for _, s := range seeds {
			if c.dir.Dot(s) > minSepCos {
				distinct = false
				break
			}
		}
		if distinct {
			seeds = append(seeds, c.dir)
			if len(seeds) == maxSeeds {
				break
			}
		}
	}
	return seeds
}

// scored is an approximation candidate and its joint log-likelihood.
type scored struct {
	dir geom.Vec
	ll  float64
}

// score sets every candidate's ll, two candidates per logLikPair call; an
// odd last candidate takes the scalar loop. A score does not depend on its
// partner, so any split of the candidates gives the same scores.
func (v *view) score(robustCap float64, cands []scored) {
	i := 0
	for ; i+1 < len(cands); i += 2 {
		cands[i].ll, cands[i+1].ll = v.logLikPair(robustCap, cands[i].dir, cands[i+1].dir)
	}
	if i < len(cands) {
		cands[i].ll = v.logLik(robustCap, cands[i].dir)
	}
}

// Refine improves an initial direction by iteratively-gated weighted least
// squares (the paper's "almost-linear least-squares" refinement).
func Refine(cfg *Config, rings []*recon.Ring, s0 geom.Vec) Result {
	return newView(rings).refine(cfg, s0)
}

func (v *view) refine(cfg *Config, s0 geom.Vec) Result {
	if len(v.eta) == 0 {
		return Result{}
	}
	s := s0.Unit()
	res := Result{Dir: s, OK: true}
	gated := make([]int, 0, len(v.eta))
	for it := 0; it < cfg.MaxIters; it++ {
		res.Iterations = it + 1
		gated = v.gate(cfg, s, gated)
		res.RingsUsed = len(gated)
		next, ok := v.solveLSQ(gated, s)
		if !ok {
			break
		}
		if cfg.SkyOnly && next.Z < 0 {
			// Project back to the horizon rather than letting the estimate
			// dive below the Earth limb.
			next.Z = 0
			if next.Norm() == 0 {
				break
			}
			next = next.Unit()
		}
		move := geom.AngleBetween(s, next)
		s = next
		res.Dir = s
		if move < cfg.ConvergeRad {
			res.Converged = true
			break
		}
	}
	return res
}

// ErrorRadiusDeg estimates the 1σ angular uncertainty (degrees) of a
// localization at s from the Fisher information of the gated rings: each
// ring constrains the component of s along its axis with weight 1/dη²,
// giving the 2×2 information matrix in the tangent plane at s. The returned
// radius is the geometric mean of the two principal 1σ extents — what the
// flight system would downlink as its own error estimate, since ground
// truth is unavailable in flight.
func ErrorRadiusDeg(cfg *Config, rings []*recon.Ring, s geom.Vec) float64 {
	v := newView(rings)
	gated := v.gate(cfg, s, nil)
	if len(gated) == 0 {
		return 180
	}
	u, w := geom.OrthoBasis(s)
	var h00, h01, h11 float64
	for _, i := range gated {
		// d(s·c)/dt along tangent direction t is t·c; information adds
		// (t·c)(t'·c)/dη².
		cu := v.x[i]*u.X + v.y[i]*u.Y + v.z[i]*u.Z
		cw := v.x[i]*w.X + v.y[i]*w.Y + v.z[i]*w.Z
		wgt := 1 / (v.deta[i] * v.deta[i])
		h00 += wgt * cu * cu
		h01 += wgt * cu * cw
		h11 += wgt * cw * cw
	}
	det := h00*h11 - h01*h01
	if det <= 0 {
		return 180
	}
	// Covariance = H⁻¹; principal variances are the eigenvalues. Their
	// geometric mean is sqrt(det(H⁻¹)) = 1/sqrt(det(H)).
	sigmaRad := math.Sqrt(1 / math.Sqrt(det))
	return geom.Deg(sigmaRad)
}

// Localize runs approximation followed by refinement. It refines the
// best-scoring well-separated seeds from the approximation stage and keeps
// the refined direction with the highest joint likelihood.
func Localize(cfg *Config, rings []*recon.Ring, rng *xrand.RNG) Result {
	v := newView(rings)
	seeds := v.approximate(cfg, rng, 3)
	if len(seeds) == 0 {
		return Result{}
	}
	// Refine every seed concurrently (each reads the shared view and
	// mutates nothing), then pick the winner in seed order so ties break
	// exactly as the serial loop did.
	refined := make([]Result, len(seeds))
	par.NewPool(cfg.Workers).ForEach(context.Background(), len(seeds), func(i int) {
		refined[i] = v.refine(cfg, seeds[i])
	})
	best := math.Inf(-1)
	var bestRes Result
	for _, res := range refined {
		if !res.OK {
			continue
		}
		if ll := v.logLik(cfg.RobustCap, res.Dir); ll > best {
			best, bestRes = ll, res
		}
	}
	return bestRes
}

// gate returns, in ring order, the indices of the rings within GateSigma
// ring widths (capped at MaxGateCos in cosine space) of s, widening the gate
// when fewer than MinRings survive and falling back to every ring. It
// reuses out's storage.
func (v *view) gate(cfg *Config, s geom.Vec, out []int) []int {
	k := cfg.GateSigma
	cap := cfg.MaxGateCos
	if cap <= 0 {
		cap = math.Inf(1)
	}
	for widen := 0; widen < 3; widen++ {
		out = out[:0]
		for i, deta := range v.deta {
			w := k * deta
			if w > cap {
				w = cap
			}
			if math.Abs(v.residual(i, s)) <= w {
				out = append(out, i)
			}
		}
		if len(out) >= cfg.MinRings {
			return out
		}
		k *= 2
		cap *= 2
	}
	out = out[:0]
	for i := range v.deta {
		out = append(out, i)
	}
	return out
}

// solveLSQ solves min_s Σ wᵢ(s·cᵢ − ηᵢ)² over the gated rings, in order,
// via the 3×3 normal equations and renormalizes. prev seeds the Tikhonov
// fallback when the system is nearly singular (all ring axes parallel).
func (v *view) solveLSQ(gated []int, prev geom.Vec) (geom.Vec, bool) {
	if len(gated) == 0 {
		return geom.Vec{}, false
	}
	var m [3][3]float64
	var b [3]float64
	for _, r := range gated {
		w := 1 / (v.deta[r] * v.deta[r])
		c := [3]float64{v.x[r], v.y[r], v.z[r]}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += w * c[i] * c[j]
			}
			b[i] += w * v.eta[r] * c[i]
		}
	}
	// Tikhonov regularization toward the previous estimate stabilizes the
	// degenerate case and barely perturbs the well-conditioned one.
	lambda := 1e-6 * (m[0][0] + m[1][1] + m[2][2])
	p := [3]float64{prev.X, prev.Y, prev.Z}
	for i := 0; i < 3; i++ {
		m[i][i] += lambda
		b[i] += lambda * p[i]
	}
	x, ok := solve3(m, b)
	if !ok {
		return geom.Vec{}, false
	}
	s := geom.Vec{X: x[0], Y: x[1], Z: x[2]}
	if s.Norm() == 0 {
		return geom.Vec{}, false
	}
	return s.Unit(), true
}

// solve3 solves a 3×3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(m [3][3]float64, b [3]float64) ([3]float64, bool) {
	a := [3][4]float64{}
	for i := 0; i < 3; i++ {
		copy(a[i][:3], m[i][:])
		a[i][3] = b[i]
	}
	for col := 0; col < 3; col++ {
		piv := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-30 {
			return [3]float64{}, false
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < 3; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c < 4; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	var x [3]float64
	for i := 0; i < 3; i++ {
		x[i] = a[i][3] / a[i][i]
	}
	return x, true
}
