// Package pipeline implements the paper's full GRB analysis pipeline with
// the machine-learning stage in the middle of localization (Fig. 6):
//
//	reconstruct events → localize → repeat ≤5× { estimate polar angle →
//	background network flags rings → re-localize } → dEta network rewrites
//	ring widths → final localization.
//
// The pipeline can run without models (the paper's prior, no-ML pipeline),
// with oracle substitutions for the Fig. 4 upper-bound arms, or with an
// alternative background classifier (e.g. the INT8 quantized network).
// Every stage is timed with the same decomposition as the paper's
// Tables I and II.
package pipeline

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/detector"
	"repro/internal/features"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// BkgClassifier produces background probabilities for normalized feature
// rows. The FP32 bundle network and the INT8 quantized network both satisfy
// it.
type BkgClassifier interface {
	Probs(x *nn.Tensor) []float32
}

// FP32Classifier adapts an nn.Sequential.
type FP32Classifier struct{ Net *nn.Sequential }

// Probs implements BkgClassifier.
func (c FP32Classifier) Probs(x *nn.Tensor) []float32 { return c.Net.PredictProbs(x) }

// ProbsInto implements the probsInto fast path.
func (c FP32Classifier) ProbsInto(x *nn.Tensor, out []float32) { c.Net.PredictProbsInto(x, out) }

// probsInto is an optional BkgClassifier extension: classifiers that can
// write probabilities into a caller-owned buffer avoid one allocation and
// copy per inference shard.
type probsInto interface {
	ProbsInto(x *nn.Tensor, out []float32)
}

// Options configures a pipeline run. Zero-valued sub-configs mean package
// defaults.
type Options struct {
	Recon recon.Config
	Loc   localize.Config
	// Bundle supplies the trained networks; nil runs the no-ML pipeline.
	Bundle *models.Bundle
	// BkgOverride replaces the bundle's background classifier (e.g. with
	// the serving micro-batcher) while keeping its thresholds and
	// normalizer. When set, it takes precedence over Backend.
	BkgOverride BkgClassifier
	// Backend selects which inference implementation evaluates the
	// background network when BkgOverride is nil: float32 (default) or
	// int8. The int8 backend requires a quantized bundle (Bundle.Int8
	// non-nil); Run panics otherwise — callers surface friendlier errors
	// by pre-validating with NewClassifier.
	Backend Backend
	// MaxNNIters is the bound on localize↔classify iterations (paper:
	// "currently five").
	MaxNNIters int
	// ConvergeDeg stops the iteration early once the direction estimate
	// moves less than this many degrees between iterations.
	ConvergeDeg float64
	// OracleBackground removes ground-truth background rings before
	// localization (Fig. 4 middle arm). Mutually exclusive with Bundle.
	OracleBackground bool
	// OracleDEta replaces every ring's dη with its realized |η error|
	// (Fig. 4 right arm).
	OracleDEta bool
	// DEtaFloor bounds NN-predicted (and oracle) ring widths from below.
	DEtaFloor float64
	// DEtaWidenRatio: a ring's width is replaced by the dEta network's
	// prediction only when the prediction exceeds the analytic width by at
	// least this factor. The network exists to catch rings whose "actual
	// errors in η [are] much larger than our estimates predict" (§II-B);
	// for the bulk of rings the analytic propagation already orders the
	// weights well, and wholesale replacement with an honest-but-noisy
	// regression flattens that ordering. Zero means 3.
	DEtaWidenRatio float64
	// DisableDEtaNN keeps the dEta network's widths out of the run while
	// the background network still filters, for ablation studies.
	DisableDEtaNN bool
	// Workers caps parallelism for every stage of the run — reconstruction,
	// the localization grid search, feature extraction, and sharded NN
	// inference. 0 means the process default (par.DefaultWorkers); 1 forces
	// the serial path. Results are bitwise-identical for any value.
	Workers int
	// Metrics, when non-nil, receives the per-stage latency histograms
	// (StageNames) and run counters of every Run call — the Tables I/II
	// decomposition as a live report. A nil registry costs nothing.
	Metrics *obs.Registry
}

// classifier resolves the background classifier a run evaluates:
// BkgOverride, else Backend's network over Bundle. It panics when the
// backend cannot serve the bundle; callers surface friendlier errors by
// pre-validating with NewClassifier.
func (o *Options) classifier() BkgClassifier {
	if o.BkgOverride != nil {
		return o.BkgOverride
	}
	cls, err := NewClassifier(o.Backend, o.Bundle)
	if err != nil {
		panic("pipeline: " + err.Error())
	}
	return cls
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{
		Recon:       recon.DefaultConfig(),
		Loc:         localize.DefaultConfig(),
		MaxNNIters:  5,
		ConvergeDeg: 0.5,
		DEtaFloor:   0.003,
	}
}

// Timing is the per-stage elapsed time of one run, decomposed exactly as in
// the paper's Tables I and II. BkgNN and ApproxRefine accumulate over the
// iterations of the NN loop.
type Timing struct {
	Reconstruction time.Duration
	Setup          time.Duration
	DEtaNN         time.Duration
	BkgNN          time.Duration
	ApproxRefine   time.Duration
	Total          time.Duration
}

// Stage-metric names recorded into Options.Metrics, one histogram per
// Timing field.
const (
	StageReconstruction = "reconstruction"
	StageSetup          = "setup"
	StageBkgNN          = "bkg_nn"
	StageDEtaNN         = "deta_nn"
	StageApproxRefine   = "approx_refine"
	StageTotal          = "total"
)

// StageNames lists the pipeline stage metrics in pipeline (Tables I/II)
// order. Run pre-registers them so reports read top-to-bottom in this
// order regardless of which stages a particular run exercised.
var StageNames = []string{
	StageReconstruction, StageSetup, StageBkgNN, StageDEtaNN,
	StageApproxRefine, StageTotal,
}

// record publishes one run's Timing into a metrics registry. The NN-loop
// stages accumulate across iterations within a run, matching the paper's
// tables, so each histogram receives exactly one sample per Run call.
func (t *Timing) record(m *obs.Registry) {
	if m == nil {
		return
	}
	m.ObserveStage(StageReconstruction, t.Reconstruction)
	m.ObserveStage(StageSetup, t.Setup)
	m.ObserveStage(StageBkgNN, t.BkgNN)
	m.ObserveStage(StageDEtaNN, t.DEtaNN)
	m.ObserveStage(StageApproxRefine, t.ApproxRefine)
	m.ObserveStage(StageTotal, t.Total)
}

// Result reports one pipeline run.
type Result struct {
	// Loc is the final localization (Loc.OK false when no usable rings).
	Loc localize.Result
	// Rings is the number reconstructed; Kept the number surviving the
	// background filter.
	Rings, Kept int
	// RingsFirstBkg is the ring count entering the first background-network
	// pass (the paper's FPGA workload statistic: 597 on average).
	RingsFirstBkg int
	// NNIterations is how many localize↔classify iterations ran.
	NNIterations int
	// FlaggedGRB and FlaggedBkg count rings removed by the final background
	// filter, split by ground truth (evaluation diagnostics; the flight
	// pipeline never sees these).
	FlaggedGRB, FlaggedBkg int
	// ErrorRadiusDeg is the pipeline's own 1σ uncertainty estimate for the
	// final direction (Fisher information of the surviving rings) — the
	// figure a flight system downlinks, since it has no ground truth.
	ErrorRadiusDeg float64
	// ActiveRings are the rings the final localization used (background
	// filter survivors, with dEta-updated widths). Downstream products —
	// posterior sky maps, credible regions — should be built from these,
	// not from the raw reconstruction.
	ActiveRings []*recon.Ring
	// Trace records one entry per NN-loop iteration (ML runs only).
	Trace []IterationRecord
	// Timing is the stage decomposition of this run.
	Timing Timing
}

// IterationRecord captures one localize↔classify iteration for analysis.
type IterationRecord struct {
	// PolarDeg is the polar-angle guess fed to the classifier.
	PolarDeg float64
	// Flagged is how many rings the classifier rejected this iteration.
	Flagged int
	// MovedDeg is how far the direction estimate moved.
	MovedDeg float64
}

// Run executes the pipeline over one exposure's events. Every stage runs
// on one bounded worker pool (Options.Workers); the result is bitwise
// deterministic in (opts, events, rng seed) for any worker count.
func Run(opts Options, events []*detector.Event, rng *xrand.RNG) Result {
	start := time.Now()
	var res Result

	pool := par.NewPool(opts.Workers)
	// The localization solver inherits the run's parallelism bound unless
	// the caller pinned its own.
	locCfg := opts.Loc
	if locCfg.Workers == 0 {
		locCfg.Workers = pool.Workers()
	}

	m := opts.Metrics
	if m != nil {
		for _, s := range StageNames {
			m.Stage(s) // pre-register so reports keep pipeline order
		}
	}
	defer func() {
		res.Timing.record(m)
		m.Counter("runs").Inc()
		m.Counter("events").Add(int64(len(events)))
		m.Counter("rings_reconstructed").Add(int64(res.Rings))
		m.Counter("rings_kept").Add(int64(res.Kept))
		m.Counter("nn_iterations").Add(int64(res.NNIterations))
	}()

	// ---- Stage: reconstruction (parallel over events) ----
	t0 := time.Now()
	rings := reconstructAll(&opts, events, pool)
	res.Timing.Reconstruction = time.Since(t0)
	res.Rings = len(rings)

	// ---- Stage: localization setup ----
	t0 = time.Now()
	if opts.OracleBackground {
		kept := rings[:0]
		for _, r := range rings {
			if !r.Background {
				kept = append(kept, r)
			}
		}
		rings = kept
	}
	if opts.OracleDEta {
		for _, r := range rings {
			d := r.EtaError()
			if d < opts.DEtaFloor {
				d = opts.DEtaFloor
			}
			r.DEta = d
		}
	}
	flagged := make([]bool, len(rings)) // true = classified background
	active := make([]*recon.Ring, 0, len(rings))
	res.Timing.Setup = time.Since(t0)

	if len(rings) == 0 {
		res.Timing.Total = time.Since(start)
		return res
	}

	// ---- Initial localization (approx + refine) ----
	t0 = time.Now()
	loc := localize.Localize(&locCfg, rings, rng)
	res.Timing.ApproxRefine += time.Since(t0)
	if !loc.OK {
		res.Timing.Total = time.Since(start)
		return res
	}

	// ---- Iterative background rejection (Fig. 6) ----
	if opts.Bundle != nil {
		cls := opts.classifier()
		res.RingsFirstBkg = len(rings)
		prev := loc.Dir
		for it := 0; it < opts.MaxNNIters; it++ {
			res.NNIterations = it + 1

			t0 = time.Now()
			polar := polarDeg(prev)
			x := features.MatrixWith(pool, rings, polar, opts.Bundle.WithPolar)
			opts.Bundle.BkgNorm.ApplyWith(pool, x)
			probs := parallelProbs(cls, x, pool)
			thr := opts.Bundle.Thr.For(polar)
			res.FlaggedGRB, res.FlaggedBkg = 0, 0
			for i := range rings {
				flagged[i] = probs[i] > thr
				if flagged[i] {
					if rings[i].Background {
						res.FlaggedBkg++
					} else {
						res.FlaggedGRB++
					}
				}
			}
			res.Timing.BkgNN += time.Since(t0)

			active = active[:0]
			for i, r := range rings {
				if !flagged[i] {
					active = append(active, r)
				}
			}
			if len(active) < locCfg.MinRings {
				break // classifier rejected nearly everything; keep prev
			}

			// Re-localize on the filtered set two ways: refine from the
			// previous estimate, and run a fresh approximation pass. The
			// fresh pass lets the solver escape a background-induced
			// likelihood mode once the classifier has thinned the
			// background out — the reason the paper iterates rather than
			// applying the model once — while the likelihood comparison
			// keeps a jumpy re-approximation from discarding a good mode.
			t0 = time.Now()
			refined := localize.Refine(&locCfg, active, prev)
			fresh := localize.Localize(&locCfg, active, rng)
			next := refined
			if fresh.OK && (!refined.OK ||
				localize.LogLikelihood(&locCfg, active, fresh.Dir) >
					localize.LogLikelihood(&locCfg, active, refined.Dir)) {
				next = fresh
			}
			res.Timing.ApproxRefine += time.Since(t0)
			if !next.OK {
				break
			}
			loc = next
			moved := loc.ErrorDeg(prev)
			prev = loc.Dir
			nFlagged := 0
			for _, f := range flagged {
				if f {
					nFlagged++
				}
			}
			res.Trace = append(res.Trace, IterationRecord{
				PolarDeg: polarDeg(prev), Flagged: nFlagged, MovedDeg: moved,
			})
			if moved < opts.ConvergeDeg {
				break
			}
		}

		// ---- dEta network rewrites surviving ring widths ----
		t0 = time.Now()
		if len(active) > 0 && !opts.DisableDEtaNN {
			ApplyDEtaWith(pool, opts.Bundle, active, polarDeg(prev), opts.DEtaFloor, opts.DEtaWidenRatio)
		}
		res.Timing.DEtaNN = time.Since(t0)

		// ---- Final localization seeded at the last estimate ----
		t0 = time.Now()
		if len(active) >= locCfg.MinRings {
			if final := localize.Refine(&locCfg, active, prev); final.OK {
				loc = final
			}
			res.Kept = len(active)
		} else {
			res.Kept = len(rings)
		}
		res.Timing.ApproxRefine += time.Since(t0)
	} else {
		res.Kept = len(rings)
	}

	res.Loc = loc
	res.ActiveRings = rings
	if opts.Bundle != nil && len(active) >= locCfg.MinRings {
		res.ActiveRings = active
	}
	if loc.OK {
		res.ErrorRadiusDeg = localize.ErrorRadiusDeg(&locCfg, res.ActiveRings, loc.Dir)
	}
	res.Timing.Total = time.Since(start)
	return res
}

// RunWindow executes the pipeline over the events whose arrival times fall
// in [t0, t1) — the entry point the streaming trigger uses to hand a burst
// window to localization without materializing a filtered copy per caller.
// Events need not be sorted; relative order within the window is preserved,
// so a given (opts, events, t0, t1, rng) is exactly as deterministic as Run.
func RunWindow(opts Options, events []*detector.Event, t0, t1 float64, rng *xrand.RNG) Result {
	window := make([]*detector.Event, 0, len(events))
	for _, ev := range events {
		if ev.ArrivalTime >= t0 && ev.ArrivalTime < t1 {
			window = append(window, ev)
		}
	}
	return Run(opts, window, rng)
}

// minShardRows is the smallest inference batch worth sharding: below it,
// goroutine handoff costs more than the matmul it saves.
const minShardRows = 64

// reconstructAll runs event reconstruction on the worker pool. Each event's
// ring lands in its fixed slot, then survivors are compacted in event
// order, so the ring list is identical for any worker count.
func reconstructAll(opts *Options, events []*detector.Event, p *par.Pool) []*recon.Ring {
	out := make([]*recon.Ring, len(events))
	p.ForRange(context.Background(), len(events), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if r, ok := recon.Reconstruct(&opts.Recon, events[i]); ok {
				out[i] = r
			}
		}
	})
	rings := make([]*recon.Ring, 0, len(events)/4)
	for _, r := range out {
		if r != nil {
			rings = append(rings, r)
		}
	}
	return rings
}

// parallelProbs shards classifier inference over row ranges of the feature
// matrix, writing each shard's probabilities into its fixed slice of the
// result. Classifiers implementing the probsInto fast path skip the
// per-shard allocation.
func parallelProbs(cls BkgClassifier, x *nn.Tensor, p *par.Pool) []float32 {
	out := make([]float32, x.Rows)
	if p.Workers() <= 1 || x.Rows < minShardRows {
		ClassifierProbsInto(cls, x, out)
		return out
	}
	p.ForRange(context.Background(), x.Rows, func(_, lo, hi int) {
		ClassifierProbsInto(cls, x.SliceRows(lo, hi), out[lo:hi])
	})
	return out
}

// parallelPredict1 shards single-output regression inference over row
// ranges, returning one prediction per row of x.
func parallelPredict1(net *nn.Sequential, x *nn.Tensor, p *par.Pool) []float32 {
	out := make([]float32, x.Rows)
	if p.Workers() <= 1 || x.Rows < minShardRows {
		pred := net.Predict(x)
		if pred.Cols != 1 {
			panic("pipeline: parallelPredict1 requires a single-output network")
		}
		copy(out, pred.Data)
		return out
	}
	p.ForRange(context.Background(), x.Rows, func(_, lo, hi int) {
		pred := net.Predict(x.SliceRows(lo, hi))
		if pred.Cols != 1 {
			panic("pipeline: parallelPredict1 requires a single-output network")
		}
		copy(out[lo:hi], pred.Data)
	})
	return out
}

// polarDeg returns the polar angle of a direction in degrees.
func polarDeg(v geom.Vec) float64 { return geom.Deg(geom.Polar(v)) }

// expf32 is exp on float32 via the float64 implementation.
func expf32(x float32) float32 { return float32(math.Exp(float64(x))) }

// ApplyDEtaWith rewrites ring widths in place using the bundle's dEta
// network with the pipeline's widening-only policy (see
// Options.DEtaWidenRatio): the analytic dη is globally underconfident by a
// roughly uniform factor (the unmodeled-noise premise of §II-B), so the
// per-ring ratio NN/analytic is first normalized by its run median; a ring
// is widened only when the network singles it out as far more wrong than
// its peers — the misordered/energy-lossy rings whose false certainty "can
// lead our likelihood model astray". polarGuess is the current source
// polar angle estimate in degrees; floor bounds the widths from below (≤0
// for the default); widenRatio ≤ 0 means the default 3. Inference is
// sharded over p (nil means the process-default pool).
func ApplyDEtaWith(p *par.Pool, bundle *models.Bundle, rings []*recon.Ring, polarGuess, floor, widenRatio float64) {
	if len(rings) == 0 {
		return
	}
	if floor <= 0 {
		floor = DefaultOptions().DEtaFloor
	}
	if widenRatio <= 0 {
		widenRatio = 3
	}
	nnWidth, med := dEtaPredictions(p, bundle, rings, polarGuess)
	for i, r := range rings {
		if nnWidth[i] > widenRatio*med*r.DEta {
			r.DEta = nnWidth[i]
		}
		if r.DEta < floor {
			r.DEta = floor
		}
	}
}

// ApplyDEtaCalibrated rewrites ring widths to *honest* values: every ring's
// analytic dη is scaled by the network's median correction factor (fixing
// the global underconfidence the analytic model shares across rings) and
// outliers are widened to their individual predictions. Use this when the
// widths feed an uncertainty product (credible regions, error radii) rather
// than the point-estimate's relative weighting, where ApplyDEtaWith's
// widening-only policy preserves accuracy better. ProductRings applies it
// to copies of a result's rings. Inference runs on the process-default
// worker pool.
func ApplyDEtaCalibrated(bundle *models.Bundle, rings []*recon.Ring, polarGuess float64) {
	applyDEtaCalibrated(nil, bundle, rings, polarGuess)
}

// applyDEtaCalibrated is ApplyDEtaCalibrated with inference sharded over p
// (nil means the process-default pool).
func applyDEtaCalibrated(p *par.Pool, bundle *models.Bundle, rings []*recon.Ring, polarGuess float64) {
	if len(rings) == 0 {
		return
	}
	floor := DefaultOptions().DEtaFloor
	nnWidth, med := dEtaPredictions(p, bundle, rings, polarGuess)
	for i, r := range rings {
		d := med * r.DEta
		if nnWidth[i] > d {
			d = nnWidth[i]
		}
		if d < floor {
			d = floor
		}
		r.DEta = d
	}
}

// BackgroundProbs evaluates the bundle's float32 background network on
// rings at the given polar-angle guess, returning one probability per
// ring. Inference is sharded over the process-default worker pool.
// ProductRings evaluates the classifier of the run that produced a result
// instead, so a product follows the run's backend.
func BackgroundProbs(bundle *models.Bundle, rings []*recon.Ring, polarGuess float64) []float64 {
	return backgroundProbs(par.NewPool(0), FP32Classifier{Net: bundle.Bkg}, bundle, rings, polarGuess)
}

// backgroundProbs evaluates cls on rings' normalized features at the given
// polar-angle guess, sharded over pool.
func backgroundProbs(pool *par.Pool, cls BkgClassifier, bundle *models.Bundle, rings []*recon.Ring, polarGuess float64) []float64 {
	x := features.MatrixWith(pool, rings, polarGuess, bundle.WithPolar)
	bundle.BkgNorm.ApplyWith(pool, x)
	probs := parallelProbs(cls, x, pool)
	out := make([]float64, len(probs))
	for i, p := range probs {
		out[i] = float64(p)
	}
	return out
}

// ProductRings returns the inputs of an uncertainty product (a sky map or
// credible region) for a result that Run produced under opts: copies of
// res.ActiveRings with ApplyDEtaCalibrated's honest widths, and each ring's
// background probability at the result's polar angle. The probabilities
// come from the classifier the run evaluated (opts.BkgOverride, else
// opts.Backend's network) on a pool bounded by opts.Workers; of opts only
// Bundle, BkgOverride, Backend and Workers are read. Without a bundle the
// widths are already final, so the result's own rings are returned with
// nil probabilities. res is never modified.
func ProductRings(opts Options, res *Result) ([]*recon.Ring, []float64) {
	if opts.Bundle == nil {
		return res.ActiveRings, nil
	}
	rings := make([]*recon.Ring, len(res.ActiveRings))
	for i, r := range res.ActiveRings {
		c := *r
		rings[i] = &c
	}
	pool := par.NewPool(opts.Workers)
	polar := polarDeg(res.Loc.Dir)
	applyDEtaCalibrated(pool, opts.Bundle, rings, polar)
	return rings, backgroundProbs(pool, opts.classifier(), opts.Bundle, rings, polar)
}

// dEtaPredictions returns the network's per-ring width predictions and the
// median prediction/analytic ratio (≥1), with feature extraction and
// inference sharded over p (nil means the process-default pool).
func dEtaPredictions(p *par.Pool, bundle *models.Bundle, rings []*recon.Ring, polarGuess float64) ([]float64, float64) {
	x := features.MatrixWith(p, rings, polarGuess, bundle.WithPolar)
	bundle.DEtaNorm.ApplyWith(p, x)
	pred := parallelPredict1(bundle.DEta, x, p)
	scale := bundle.DEtaScale
	if scale <= 0 {
		scale = 1
	}
	ratios := make([]float64, len(rings))
	nnWidth := make([]float64, len(rings))
	for i, r := range rings {
		nnWidth[i] = scale * float64(expf32(pred[i]))
		ratios[i] = nnWidth[i] / r.DEta
	}
	med := medianOf(ratios)
	if med < 1 {
		med = 1
	}
	return nnWidth, med
}

// medianOf returns the median of xs without modifying it.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}
