package main

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/background"
	"repro/internal/datagen"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/geom"
	"repro/internal/models"
	"repro/internal/par"
	"repro/internal/xrand"
)

// Training preset: the repository's "ci" scale (internal/expt), trained in
// process on every run so set-up never depends on a model cache on disk.
// The training seed is fixed: the models are part of the system under
// test, and retraining them per input seed changes how many
// localize↔classify iterations every input needs, which moves latency by
// more than a regression bound from one seed to the next.
const (
	modelSeed           = 2001
	trainBurstsPerAngle = 1
	trainEpochs         = 6
	qatEpochs           = 2
)

func trainingSet(seed uint64) *datagen.Set {
	gen := datagen.DefaultConfig(seed)
	gen.BurstsPerAngle = trainBurstsPerAngle
	return datagen.Generate(gen)
}

func trainOptions(seed uint64, swapped bool) models.TrainOptions {
	opts := models.DefaultTrainOptions(seed)
	opts.WithPolar = true
	opts.Swapped = swapped
	opts.MaxEpochs = trainEpochs
	opts.Patience = trainEpochs/3 + 2
	opts.BkgLR = 5e-3
	opts.BkgBatch = 1024
	return opts
}

// float32Bundle trains the production model pair (13 features with the
// polar-angle input).
func float32Bundle(seed uint64) *models.Bundle {
	return models.Train(trainingSet(seed), trainOptions(seed+1, false))
}

// int8Bundle trains the layer-swapped pair and attaches the QAT int8
// background network, as adapttrain -quantize does.
func int8Bundle(seed uint64) *models.Bundle {
	set := trainingSet(seed)
	b := models.Train(set, trainOptions(seed+1, true))
	q := models.DefaultQuantizeOptions(seed + 2)
	q.QATEpochs = qatEpochs
	n, _, err := models.QuantizeBackground(b, set, q)
	if err != nil {
		panic(fmt.Sprintf("perfbench: quantize: %v", err))
	}
	b.Int8 = n
	return b
}

// roundTrip passes events through the evio codec, the form every stored or
// transmitted event takes (hit fields as float32, no per-hit truth).
func roundTrip(events []*detector.Event) []*detector.Event {
	blob, err := evio.Marshal(events)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal: %v", err))
	}
	out, err := evio.Unmarshal(blob)
	if err != nil {
		panic(fmt.Sprintf("perfbench: unmarshal: %v", err))
	}
	return out
}

// burstSpec draws one 1 MeV/cm² burst at a polar angle in 0–80°.
func burstSpec(rng *xrand.RNG, i int) detector.Burst {
	return detector.Burst{Fluence: 1.0, PolarDeg: float64(i%9) * 10, AzimuthDeg: rng.Uniform(0, 360)}
}

// scenes is the burst workload's input: distinct bursts, each paired with
// one of a few independently simulated 1 s background windows. Bursts are
// kept evio-encoded and decoded just before their run, which keeps a few
// hundred scenes within a small heap.
type scenes struct {
	bursts [][]byte // evio blobs
	truth  []geom.Vec
	bkgOf  []int
	bkg    [][]*detector.Event
}

// makeScenes simulates n scenes over nBkg background windows.
func makeScenes(seed uint64, n, nBkg, workers int) *scenes {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	root := xrand.New(seed)
	s := &scenes{
		bursts: make([][]byte, n),
		truth:  make([]geom.Vec, n),
		bkgOf:  make([]int, n),
		bkg:    make([][]*detector.Event, nBkg),
	}
	pool := par.NewPool(workers)
	pool.ForEach(context.Background(), n+nBkg, func(i int) {
		if i >= n {
			s.bkg[i-n] = roundTrip(bg.Simulate(&det, 1.0, root.Split(uint64(1<<20+i-n))))
			return
		}
		rng := root.Split(uint64(i))
		spec := burstSpec(rng, i)
		blob, err := evio.Marshal(detector.SimulateBurst(&det, spec, rng))
		if err != nil {
			panic(fmt.Sprintf("perfbench: marshal: %v", err))
		}
		s.bursts[i], s.truth[i], s.bkgOf[i] = blob, spec.SourceDirection(), i%nBkg
	})
	return s
}

// events decodes scene i: its burst followed by its background window.
func (s *scenes) events(i int) []*detector.Event {
	burst, err := evio.Unmarshal(s.bursts[i])
	if err != nil {
		panic(fmt.Sprintf("perfbench: unmarshal: %v", err))
	}
	return append(burst, s.bkg[s.bkgOf[i]]...)
}

// exposure is the flight workload's input: bursts on top of background,
// in arrival order, split over two detector lanes.
type exposure struct {
	events   []*detector.Event
	lanes    [2][]*detector.Event
	onsets   []float64 // injected burst start times, s
	truth    []geom.Vec
	meanRate float64 // calibrated quiet-sky rate, events/s
}

// Flight exposure layout: bursts start every burstSpacing seconds after a
// quiet lead-in, and the exposure runs on past the last burst window so
// every window is closed by a later event.
const (
	flightBursts  = 10
	burstSpacing  = 1.2
	flightLeadIn  = 0.6
	flightLeadOut = 0.8
)

func makeExposure(seed uint64, workers int) *exposure {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	root := xrand.New(seed)
	dur := flightLeadIn + burstSpacing*float64(flightBursts-1) + 1 + flightLeadOut
	nSec := int(dur) + 1

	x := &exposure{onsets: make([]float64, flightBursts), truth: make([]geom.Vec, flightBursts)}
	chunks := make([][]*detector.Event, nSec+flightBursts)
	pool := par.NewPool(workers)
	pool.ForEach(context.Background(), len(chunks), func(i int) {
		if i < nSec { // background second i
			span := min(1, dur-float64(i))
			evs := bg.Simulate(&det, span, root.Split(uint64(1<<20+i)))
			for _, ev := range evs {
				ev.ArrivalTime += float64(i)
			}
			chunks[i] = evs
			return
		}
		k := i - nSec
		rng := root.Split(uint64(k))
		spec := burstSpec(rng, k)
		onset := flightLeadIn + burstSpacing*float64(k)
		evs := detector.SimulateBurst(&det, spec, rng)
		for _, ev := range evs {
			ev.ArrivalTime += onset
		}
		chunks[i], x.onsets[k], x.truth[k] = evs, onset, spec.SourceDirection()
	})
	var all []*detector.Event
	nBkg := 0
	for i, c := range chunks {
		if i < nSec {
			nBkg += len(c)
		}
		all = append(all, c...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].ArrivalTime < all[j].ArrivalTime })
	x.events = roundTrip(all)
	x.meanRate = float64(nBkg) / dur

	lane := root.Split(0x1A4E)
	for _, ev := range x.events {
		k := 0
		if lane.Bool(0.5) {
			k = 1
		}
		x.lanes[k] = append(x.lanes[k], ev)
	}
	return x
}

// makeBodies simulates n serve request bodies: evio-encoded 1 s scenes.
func makeBodies(seed uint64, n, workers int) ([][]byte, []geom.Vec) {
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	root := xrand.New(seed)
	bodies := make([][]byte, n)
	truth := make([]geom.Vec, n)
	par.NewPool(workers).ForEach(context.Background(), n, func(i int) {
		rng := root.Split(uint64(i))
		spec := burstSpec(rng, i)
		evs := append(detector.SimulateBurst(&det, spec, rng), bg.Simulate(&det, 1.0, rng)...)
		blob, err := evio.Marshal(evs)
		if err != nil {
			panic(fmt.Sprintf("perfbench: marshal: %v", err))
		}
		bodies[i], truth[i] = blob, spec.SourceDirection()
	})
	return bodies, truth
}
