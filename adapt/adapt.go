// Package adapt is the public API of the ADAPT on-board GRB analysis
// library, a Go reproduction of "Machine Learning Aboard the ADAPT
// Gamma-Ray Telescope" (SC 2024).
//
// The library covers the full stack the paper builds on:
//
//   - a Monte-Carlo simulator of the ADAPT four-layer scintillator detector
//     and its balloon-altitude background environment;
//   - Compton-ring reconstruction with analytic (propagation-of-error) ring
//     width estimates;
//   - the approximate-then-refine ring-intersection localization solver;
//   - the paper's two neural networks — a background-ring classifier and a
//     dη regressor — trained from simulation ground truth with a
//     from-scratch float32 NN library; and
//   - the ML-in-the-loop localization pipeline of the paper's Fig. 6, with
//     per-stage timing, INT8 quantization of the background network, and an
//     FPGA dataflow cost model.
//
// # Quick start
//
//	inst := adapt.DefaultInstrument()
//	obs := inst.Observe(adapt.Burst{Fluence: 1.0, PolarDeg: 30}, 42)
//	res := inst.Localize(obs, nil) // nil models: the prior, no-ML pipeline
//	fmt.Println(res.Loc.ErrorDeg(obs.TrueDirection))
//
// Train the networks once (minutes on a laptop) and pass them to Localize
// to enable the ML stage:
//
//	m := adapt.TrainModels(adapt.DefaultTraining(7))
//	res = inst.Localize(obs, m)
package adapt

import (
	"sort"

	"repro/internal/background"
	"repro/internal/datagen"
	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/nn/quant"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/skymap"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Burst describes a simulated gamma-ray burst: fluence in MeV/cm², source
// polar angle (0° = zenith) and azimuth in degrees.
type Burst = detector.Burst

// Event is one detected photon: measured hits plus simulation ground truth.
type Event = detector.Event

// Ring is a reconstructed Compton ring.
type Ring = recon.Ring

// Models is a trained pair of networks (background classifier + dη
// regressor) with their feature normalizers and per-polar-bin thresholds.
type Models = models.Bundle

// Direction is a unit 3-vector in instrument coordinates (+Z toward the
// sky).
type Direction = geom.Vec

// Metrics is a runtime metrics registry: per-stage latency histograms and
// counters, dumpable as text or JSON. Attach one to an Instrument to get
// the paper's Tables I/II stage decomposition as a live report.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// SetDefaultParallelism caps the process-wide default worker count used by
// every parallel stage (localization grid search, NN inference sharding,
// campaign fan-out) when no explicit Workers value is set. n <= 0 restores
// the GOMAXPROCS default. Results are bitwise-identical for any value.
func SetDefaultParallelism(n int) { par.SetDefaultWorkers(n) }

// Backend names an inference backend for the background classifier:
// BackendFloat32 (default) or BackendInt8. See the pipeline package for
// the determinism contract of each.
type Backend = pipeline.Backend

// The available inference backends.
const (
	BackendFloat32 = pipeline.BackendFloat32
	BackendInt8    = pipeline.BackendInt8
)

// ParseBackend validates a backend name from a flag; "" means float32.
func ParseBackend(s string) (Backend, error) { return pipeline.ParseBackend(s) }

// NewClassifier builds the background classifier implementing backend b
// over m's models (nil m returns nil: the no-ML pipeline). Callers that
// accept a -backend flag should use it to validate the combination of
// backend and model bundle up front — the int8 backend requires a bundle
// quantized with adapttrain -quantize.
func NewClassifier(b Backend, m *Models) (BkgClassifier, error) {
	return pipeline.NewClassifier(b, m)
}

// ClassifierProbsInto evaluates cls on the feature matrix x, writing one
// probability per row into out, using the classifier's buffer-reuse fast
// path when it has one. Wrappers that compose classifiers (the serving
// micro-batcher) should route inference through it rather than calling
// Probs, so the wrapped backend keeps its allocation-free path.
func ClassifierProbsInto(cls BkgClassifier, x *nn.Tensor, out []float32) {
	pipeline.ClassifierProbsInto(cls, x, out)
}

// Instrument bundles the detector, environment, and pipeline configuration.
type Instrument struct {
	// Detector is the instrument geometry and measurement model.
	Detector detector.Config
	// Background is the balloon-altitude radiation environment.
	Background background.Model
	// Recon holds reconstruction quality filters.
	Recon recon.Config
	// Loc holds the localization solver settings.
	Loc localize.Config
	// MaxNNIters bounds the ML loop (paper default: 5). The pipeline may be
	// halted earlier for real-time budget reasons by lowering this.
	MaxNNIters int
	// Workers caps pipeline parallelism: 0 means the process default
	// (SetDefaultParallelism / GOMAXPROCS), 1 forces the serial path.
	// Results are bitwise-identical for any value.
	Workers int
	// Backend selects the background-classifier inference implementation
	// ("" or BackendFloat32 for the FP32 network; BackendInt8 needs a
	// quantized model bundle).
	Backend Backend
	// Metrics, when non-nil, collects per-stage latency histograms and
	// counters across every localization this instrument runs.
	Metrics *Metrics
}

// DefaultInstrument returns the ADAPT configuration used throughout the
// paper reproduction.
func DefaultInstrument() Instrument {
	return Instrument{
		Detector:   detector.DefaultConfig(),
		Background: background.DefaultModel(),
		Recon:      recon.DefaultConfig(),
		Loc:        localize.DefaultConfig(),
		MaxNNIters: 5,
	}
}

// Observation is one simulated exposure: the burst's photons plus the
// background particles of the same 1-second window.
type Observation struct {
	// Events holds every detected photon, GRB and background mixed.
	Events []*Event
	// TrueDirection is the burst's actual source direction.
	TrueDirection Direction
	// Burst echoes the simulated burst parameters.
	Burst Burst
}

// Observe simulates a burst and its background window. The result is
// deterministic in (instrument, burst, seed).
func (inst *Instrument) Observe(b Burst, seed uint64) *Observation {
	rng := xrand.New(seed)
	events := detector.SimulateBurst(&inst.Detector, b, rng)
	events = append(events, inst.Background.Simulate(&inst.Detector, 1.0, rng)...)
	return &Observation{Events: events, TrueDirection: b.SourceDirection(), Burst: b}
}

// Result is a localization outcome.
type Result = pipeline.Result

// Localize runs the analysis pipeline over an observation. Passing nil
// models runs the paper's prior no-ML pipeline; with models, the Fig. 6
// ML-in-the-loop pipeline runs (background rejection iterated up to
// MaxNNIters, then dη refinement, then a final localization).
func (inst *Instrument) Localize(obs *Observation, m *Models) Result {
	return inst.LocalizeEvents(obs.Events, m, 1)
}

// LocalizeEvents is Localize for a caller-assembled event list; seed
// controls the solver's random sampling.
func (inst *Instrument) LocalizeEvents(events []*Event, m *Models, seed uint64) Result {
	return inst.LocalizeEventsWithClassifier(events, m, nil, seed)
}

// BkgClassifier is the pipeline's background-classifier contract: anything
// producing background probabilities for normalized feature rows. The
// bundle's FP32 network, the INT8 quantized network, and the serving
// layer's cross-request micro-batcher all satisfy it.
type BkgClassifier = pipeline.BkgClassifier

// LocalizeEventsWithClassifier is LocalizeEvents with the bundle's FP32
// background network replaced by cls (the bundle's thresholds and feature
// normalizers still apply); a nil cls runs the bundle's own network. The
// serving layer (internal/serve) uses it to route NN inference through a
// batcher shared across concurrent requests. Because inference is
// row-independent, the result is bitwise-identical to LocalizeEvents for
// any cls that evaluates the same network.
func (inst *Instrument) LocalizeEventsWithClassifier(events []*Event, m *Models, cls BkgClassifier, seed uint64) Result {
	return pipeline.Run(inst.pipelineOptions(m, cls), events, xrand.New(seed))
}

// pipelineOptions returns the pipeline configuration of inst's runs with
// models m and background classifier cls (nil for the Backend's network).
func (inst *Instrument) pipelineOptions(m *Models, cls BkgClassifier) pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.Recon = inst.Recon
	opts.Loc = inst.Loc
	if inst.MaxNNIters > 0 {
		opts.MaxNNIters = inst.MaxNNIters
	}
	opts.Bundle = m
	opts.BkgOverride = cls
	opts.Backend = inst.Backend
	opts.Workers = inst.Workers
	opts.Metrics = inst.Metrics
	return opts
}

// Training configures TrainModels.
type Training struct {
	// Seed makes dataset generation and training deterministic.
	Seed uint64
	// BurstsPerAngle sizes the training set (bursts per polar angle, nine
	// angles 0°–80°).
	BurstsPerAngle int
	// Epochs bounds training (the paper trains up to 120 with early
	// stopping).
	Epochs int
	// WithPolar includes the polar-angle guess input (the paper's
	// production configuration).
	WithPolar bool
	// Logf, when non-nil, receives training progress lines.
	Logf func(format string, args ...any)

	// swapped selects the fusion-friendly architecture (see
	// TrainingQuantizable).
	swapped bool
}

// DefaultTraining returns a laptop-scale training configuration.
func DefaultTraining(seed uint64) Training {
	return Training{Seed: seed, BurstsPerAngle: 3, Epochs: 30, WithPolar: true}
}

// TrainModels generates a labeled simulation dataset and trains both
// networks with the paper's protocol (80/20 train/test, nested 80/20
// train/validation, SGD with early stopping, per-polar-bin thresholds).
func TrainModels(cfg Training) *Models {
	gen := datagen.DefaultConfig(cfg.Seed)
	if cfg.BurstsPerAngle > 0 {
		gen.BurstsPerAngle = cfg.BurstsPerAngle
	}
	set := datagen.Generate(gen)
	opts := models.DefaultTrainOptions(cfg.Seed + 1)
	opts.WithPolar = cfg.WithPolar
	opts.Swapped = cfg.swapped
	opts.Logf = cfg.Logf
	if cfg.Epochs > 0 {
		opts.MaxEpochs = cfg.Epochs
	}
	// Scaled-dataset step size; see EXPERIMENTS.md "Training protocol".
	opts.BkgLR = 5e-3
	opts.BkgBatch = 1024
	return models.Train(set, opts)
}

// LoadModels reads a model pair saved with SaveModels (or Models.SaveFile).
func LoadModels(path string) (*Models, error) { return models.LoadBundleFile(path) }

// SaveModels writes a trained model pair to path.
func SaveModels(m *Models, path string) error { return m.SaveFile(path) }

// Int8Background is the quantized background classifier (paper §V).
type Int8Background = quant.Int8Net

// QuantizeBackground converts a model bundle's background network to INT8
// and attaches the result to the bundle (Models.Int8), so a subsequent
// SaveModels persists it and the int8 backend can use it. The
// bundle must have been trained with TrainingQuantizable (the layer-swapped
// architecture that permits Linear+BN+ReLU fusion). The
// calibration/fine-tuning data is regenerated from cfg's simulation
// settings, as in TrainModels.
func QuantizeBackground(m *Models, cfg Training) (*Int8Background, error) {
	gen := datagen.DefaultConfig(cfg.Seed)
	if cfg.BurstsPerAngle > 0 {
		gen.BurstsPerAngle = cfg.BurstsPerAngle
	}
	set := datagen.Generate(gen)
	qopts := models.DefaultQuantizeOptions(cfg.Seed + 2)
	qopts.Logf = cfg.Logf
	if cfg.Epochs > 0 && cfg.Epochs < qopts.QATEpochs {
		qopts.QATEpochs = cfg.Epochs
	}
	int8net, _, err := models.QuantizeBackground(m, set, qopts)
	if err != nil {
		return nil, err
	}
	m.Int8 = int8net
	return int8net, nil
}

// TrainingQuantizable marks a Training configuration to produce the
// layer-swapped (fusion-friendly) background architecture required by
// QuantizeBackground.
func TrainingQuantizable(cfg Training) Training {
	cfg.swapped = true
	return cfg
}

// LocalizeQuantized is Localize with the INT8 background classifier
// substituted for the bundle's FP32 network (thresholds and normalizers
// still come from the bundle). Int8Background implements BkgClassifier
// directly via its batched integer GEMM.
func (inst *Instrument) LocalizeQuantized(obs *Observation, m *Models, int8net *Int8Background) Result {
	return inst.LocalizeEventsWithClassifier(obs.Events, m, int8net, 1)
}

// Alert is one burst detected and localized by the on-board system.
type Alert = stream.Alert

// Onboard is the full flight system: the streaming count-rate trigger
// (internal/stream) feeding the localization pipeline. Unlike Localize,
// which assumes the caller already knows which events belong to the burst,
// Onboard scans a whole exposure, finds the burst windows itself, and
// localizes each.
type Onboard struct {
	cfg stream.Config
}

// NewOnboard builds the flight system. meanBackgroundRate is the expected
// quiet-sky detected-event rate in events/second (calibrated in flight; use
// the observed rate of a burst-free exposure). m may be nil for the no-ML
// pipeline.
func (inst *Instrument) NewOnboard(m *Models, meanBackgroundRate float64) *Onboard {
	cfg := stream.DefaultConfig(meanBackgroundRate)
	cfg.Recon = inst.Recon
	cfg.Loc = inst.Loc
	cfg.Bundle = m
	cfg.Backend = inst.Backend
	if inst.MaxNNIters > 0 {
		cfg.MaxNNIters = inst.MaxNNIters
	}
	cfg.Workers = inst.Workers
	cfg.Metrics = inst.Metrics
	return &Onboard{cfg: cfg}
}

// NewOnboardWithSkyMaps is NewOnboard with the encoded downlink map
// (Alert.SkyMapPayload, internal/skymap format) attached to every localized
// alert, together with its 68% and 90% credible areas. temperature is the
// empirically fitted systematic inflation of the map (see the coverage
// study in internal/expt); ≤ 0 uses the payload default.
func (inst *Instrument) NewOnboardWithSkyMaps(m *Models, meanBackgroundRate, temperature float64) *Onboard {
	o := inst.NewOnboard(m, meanBackgroundRate)
	o.cfg.SkyMap = true
	if temperature > 0 {
		o.cfg.SkyMapOpts.Temperature = temperature
	}
	return o
}

// DownlinkMap is a decoded downlink-grade quantized sky map (the payload
// attached to alerts and served by /v1/skymap). See internal/skymap for
// the format contract.
type DownlinkMap = skymap.Map

// SkyMapOptions configures downlink map construction (resolution, tile
// budget, tempering); the zero value means the calibrated defaults.
type SkyMapOptions = skymap.Options

// DecodeSkyMap parses and validates an encoded downlink map payload.
func DecodeSkyMap(b []byte) (*DownlinkMap, error) { return skymap.Decode(b) }

// BuildSkyMap renders the downlink map an alert carries for a
// localization result that ran with models m (nil for the no-ML pipeline):
// pipeline.ProductRings supplies the rings, their calibrated widths and
// their background weights from inst's Backend, and inst's solver
// configuration the likelihood. The payload (DownlinkMap.Encode) is
// bitwise-identical at any parallelism.
func (inst *Instrument) BuildSkyMap(res Result, m *Models, opts SkyMapOptions) *DownlinkMap {
	rings, probs := pipeline.ProductRings(inst.pipelineOptions(m, nil), &res)
	return skymap.FromRings(&inst.Loc, rings, probs, opts)
}

// ProcessExposure scans an exposure's events (any order; they are sorted
// by arrival time first) for bursts and returns one alert per detected
// burst. seed drives the localization solver.
func (o *Onboard) ProcessExposure(events []*Event, seed uint64) []Alert {
	sorted := append([]*Event(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].ArrivalTime < sorted[j].ArrivalTime })
	cfg := o.cfg
	cfg.Seed = seed
	return stream.Run(cfg, sorted)
}
