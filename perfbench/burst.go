package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"
	"time"

	"repro/internal/detector"
	"repro/internal/features"
	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/pipeline"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// Burst workload size: enough distinct scenes that the p95 of one pass has
// ten samples beyond it, over a few shared background windows.
const (
	burstScenes     = 200
	burstBkgWindows = 8
	// burstParityScenes are re-run at workers=1 to check that the result
	// does not depend on the worker count.
	burstParityScenes = 8
	// burstTraceScenes are mirrored stage by stage in the traced run.
	burstTraceScenes = 40
	// burstMaxC68Deg fails the run if localization quality collapses.
	burstMaxC68Deg = 20
)

type burstInput struct {
	bundle *models.Bundle
	sc     *scenes
}

func setupBurst(b *bench) burstInput {
	return burstInput{
		bundle: float32Bundle(modelSeed),
		sc:     makeScenes(b.sub(2), burstScenes, burstBkgWindows, b.workers),
	}
}

func burstOptions(bundle *models.Bundle, workers int) pipeline.Options {
	opts := pipeline.DefaultOptions()
	opts.Bundle = bundle
	opts.Workers = workers
	return opts
}

// errorDeg is a run's localization error; a failed localization counts as
// 180°.
func errorDeg(res pipeline.Result, truth geom.Vec) float64 {
	if !res.Loc.OK {
		return 180
	}
	return res.Loc.ErrorDeg(truth)
}

// runBurst times pipeline.Run over every scene at least once, then keeps
// cycling through them until the measured phase has lasted b.seconds.
func runBurst(b *bench) {
	in, setupS := timedSetup(func() burstInput { return setupBurst(b) })
	opts := burstOptions(in.bundle, b.workers)
	pipeline.Run(opts, in.sc.events(0), xrand.New(b.sub(3))) // warm-up

	var lat, errs []float64
	var busy time.Duration
	prints := make([]string, burstParityScenes)
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; i < burstScenes || time.Since(start) < b.seconds; i++ {
		k := i % burstScenes
		events := in.sc.events(k)
		rng := xrand.New(b.sub(3) + uint64(k))
		t0 := time.Now()
		res := pipeline.Run(opts, events, rng)
		d := time.Since(t0)
		busy += d
		lat = append(lat, ms(d))
		b.op(!res.Loc.OK)
		b.check(res.Loc.OK, "burst scene %d: localization failed", k)
		if i < burstScenes {
			errs = append(errs, errorDeg(res, in.sc.truth[k]))
		}
		if i < burstParityScenes {
			prints[i] = fingerprint(res)
		}
	}
	peak := heap.Stop()

	for k := 0; k < burstParityScenes; k++ {
		res := pipeline.Run(burstOptions(in.bundle, 1), in.sc.events(k), xrand.New(b.sub(3)+uint64(k)))
		b.check(fingerprint(res) == prints[k], "burst scene %d: workers=1 result differs from workers=%d", k, b.workers)
	}
	c68 := quantile(errs, 0.68)
	b.check(c68 < burstMaxC68Deg, "burst c68 %.2f° exceeds %d°", c68, burstMaxC68Deg)

	b.set("setup_s", setupS, "s")
	b.set("peak_heap_mb", peak, "MB")
	b.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	b.set("latency_tail_ms", quantile(lat, 0.95), "ms")
	b.set("throughput_per_s", float64(len(lat))/busy.Seconds(), "1/s")
	b.info["burst"] = map[string]any{
		"runs": len(lat), "tail_percentile": 95, "throughput": "pipeline runs per busy second",
		"c68_deg": c68, "scenes": burstScenes, "workers": b.workers,
	}
}

// fingerprint digests every deterministic field of a pipeline result
// (everything except Timing), including the final ring widths. %v prints
// floats in their shortest round-tripping form, so equal digests mean
// bitwise-equal results.
func fingerprint(res pipeline.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v|%d|%d|%d|%d|%d|%d|%v|%v", res.Loc, res.Rings, res.Kept, res.RingsFirstBkg,
		res.NNIterations, res.FlaggedGRB, res.FlaggedBkg, res.ErrorRadiusDeg, res.Trace)
	for _, r := range res.ActiveRings {
		fmt.Fprintf(&sb, "|%v", *r)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(sb.String())))
}

// burstSpans are the layer spans of one traced burst pass, in pipeline
// order.
type burstSpans struct {
	recon, extract, normalize, threshold    span
	approx, refine, loglik, deta, errRadius span
	layers                                  []span
	rings, bkgRows, iterations              int
}

// traceBurst mirrors pipeline.Run stage by stage from public calls on the
// first burstTraceScenes scenes, times every call, and checks the mirror's
// result is bitwise equal to Run's. End-to-end wall time for the coverage
// ratio comes from untraced Run calls on the same scenes.
func traceBurst(b *bench) {
	in := setupBurst(b)
	opts := burstOptions(in.bundle, b.workers)
	pipeline.Run(opts, in.sc.events(0), xrand.New(b.sub(3))) // warm-up

	t := &burstSpans{layers: make([]span, len(in.bundle.Bkg.Layers))}
	var wall, serial time.Duration
	var errs []float64
	for k := 0; k < burstTraceScenes; k++ {
		events := in.sc.events(k)
		seed := b.sub(3) + uint64(k)
		t0 := time.Now()
		res := pipeline.Run(opts, events, xrand.New(seed))
		wall += time.Since(t0)
		b.op(!res.Loc.OK)
		errs = append(errs, errorDeg(res, in.sc.truth[k]))

		mirrored := mirrorRun(opts, events, xrand.New(seed), t)
		b.check(fingerprint(mirrored) == fingerprint(res), "burst scene %d: traced mirror diverges from pipeline.Run", k)

		t0 = time.Now()
		one := pipeline.Run(burstOptions(in.bundle, 1), events, xrand.New(seed))
		serial += time.Since(t0)
		b.check(fingerprint(one) == fingerprint(res), "burst scene %d: workers=1 result differs", k)
	}

	n := float64(burstTraceScenes)
	var covered time.Duration
	put := func(name string, s span) {
		b.set(name+"_ms", ms(s.d)/n, "ms")
		b.set(name+"_ms.allocs", float64(s.allocs)/n, "count")
		covered += s.d
	}
	put("recon.reconstruct", t.recon)
	put("features.extract", t.extract)
	put("features.normalize", t.normalize)
	for i, l := range in.bundle.Bkg.Layers {
		put(fmt.Sprintf("nn.bkg_fp32.L%d_%s", i, layerKind(l)), t.layers[i])
	}
	put("pipeline.threshold", t.threshold)
	put("localize.approx", t.approx)
	put("localize.refine", t.refine)
	put("localize.loglik", t.loglik)
	put("nn.deta_fp32", t.deta)
	put("localize.error_radius", t.errRadius)
	b.set("recon.rings", float64(t.rings)/n, "count")
	b.set("nn.bkg_rows", float64(t.bkgRows)/n, "count")
	b.set("pipeline.nn_iterations", float64(t.iterations)/n, "count")
	b.set("burst.serial_total_ms", ms(serial)/n, "ms")
	b.set("burst.total_ms", ms(wall)/n, "ms")
	b.set("burst.c68_deg", quantile(errs, 0.68), "deg")
	b.set("burst.trace_coverage", float64(covered)/float64(wall), "ratio")
}

// layerKind names a network layer for its metric: linear, batchnorm, relu.
func layerKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Linear:
		return "linear"
	case *nn.BatchNorm1D:
		return "batchnorm"
	case *nn.ReLU:
		return "relu"
	}
	return strings.ToLower(strings.SplitN(l.String(), "(", 2)[0])
}

// mirrorRun is pipeline.Run for the float32 ML configuration, rebuilt from
// the public calls of each stage so every call can be timed. It must stay
// in step with pipeline.Run; the traced run checks that it does.
func mirrorRun(opts pipeline.Options, events []*detector.Event, rng *xrand.RNG, t *burstSpans) pipeline.Result {
	var res pipeline.Result
	pool := par.NewPool(opts.Workers)
	locCfg := opts.Loc
	if locCfg.Workers == 0 {
		locCfg.Workers = pool.Workers()
	}
	bundle := opts.Bundle

	var rings []*recon.Ring
	t.recon.timeSpan(func() { rings = reconstructAll(&opts.Recon, events, pool) })
	res.Rings = len(rings)
	t.rings += len(rings)
	if len(rings) == 0 {
		return res
	}
	flagged := make([]bool, len(rings))
	active := make([]*recon.Ring, 0, len(rings))

	var loc localize.Result
	t.approx.timeSpan(func() { loc = localize.Localize(&locCfg, rings, rng) })
	if !loc.OK {
		return res
	}

	res.RingsFirstBkg = len(rings)
	prev := loc.Dir
	for it := 0; it < opts.MaxNNIters; it++ {
		res.NNIterations = it + 1
		t.iterations++
		polar := geom.Deg(geom.Polar(prev))
		var x *nn.Tensor
		t.extract.timeSpan(func() { x = features.MatrixWith(pool, rings, polar, bundle.WithPolar) })
		t.normalize.timeSpan(func() { bundle.BkgNorm.ApplyWith(pool, x) })
		shards := forwardLayers(pool, bundle.Bkg.Layers, x, t.layers)
		t.bkgRows += x.Rows
		t.threshold.timeSpan(func() {
			thr := bundle.Thr.For(polar)
			res.FlaggedGRB, res.FlaggedBkg = 0, 0
			i := 0
			for _, y := range shards {
				for _, logit := range y.Data {
					flagged[i] = nn.Sigmoid(logit) > thr
					if flagged[i] {
						if rings[i].Background {
							res.FlaggedBkg++
						} else {
							res.FlaggedGRB++
						}
					}
					i++
				}
			}
			active = active[:0]
			for i, r := range rings {
				if !flagged[i] {
					active = append(active, r)
				}
			}
		})
		if len(active) < locCfg.MinRings {
			break
		}

		var refined, fresh localize.Result
		t.refine.timeSpan(func() { refined = localize.Refine(&locCfg, active, prev) })
		t.approx.timeSpan(func() { fresh = localize.Localize(&locCfg, active, rng) })
		next := refined
		if fresh.OK {
			if !refined.OK {
				next = fresh
			} else {
				var lf, lr float64
				t.loglik.timeSpan(func() {
					lf = localize.LogLikelihood(&locCfg, active, fresh.Dir)
					lr = localize.LogLikelihood(&locCfg, active, refined.Dir)
				})
				if lf > lr {
					next = fresh
				}
			}
		}
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
		res.Trace = append(res.Trace, pipeline.IterationRecord{
			PolarDeg: geom.Deg(geom.Polar(prev)), Flagged: nFlagged, MovedDeg: moved,
		})
		if moved < opts.ConvergeDeg {
			break
		}
	}

	t.deta.timeSpan(func() {
		if len(active) > 0 && !opts.DisableDEtaNN {
			pipeline.ApplyDEtaWith(pool, bundle, active, geom.Deg(geom.Polar(prev)), opts.DEtaFloor, opts.DEtaWidenRatio)
		}
	})
	if len(active) >= locCfg.MinRings {
		var final localize.Result
		t.refine.timeSpan(func() { final = localize.Refine(&locCfg, active, prev) })
		if final.OK {
			loc = final
		}
		res.Kept = len(active)
	} else {
		res.Kept = len(rings)
	}

	res.Loc = loc
	res.ActiveRings = rings
	if len(active) >= locCfg.MinRings {
		res.ActiveRings = active
	}
	if loc.OK {
		t.errRadius.timeSpan(func() { res.ErrorRadiusDeg = localize.ErrorRadiusDeg(&locCfg, res.ActiveRings, loc.Dir) })
	}
	return res
}

// reconstructAll reconstructs events on the pool, keeping survivors in
// event order (the same contract as the pipeline's reconstruction stage).
func reconstructAll(cfg *recon.Config, events []*detector.Event, pool *par.Pool) []*recon.Ring {
	out := make([]*recon.Ring, len(events))
	pool.ForRange(context.Background(), len(events), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			if r, ok := recon.Reconstruct(cfg, events[i]); ok {
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

// forwardLayers runs the network over x the way the pipeline shards
// inference: contiguous row shards, one per worker, each running every
// layer in turn (below 64 rows, one serial shard). It returns the output
// shards in row order. Each layer's span gets the parallel region's wall
// time in proportion to the layer's busy time summed over shards, so the
// layer spans add up to the region; allocations, one output tensor per
// layer call, are split evenly over the layers.
func forwardLayers(pool *par.Pool, layers []nn.Layer, x *nn.Tensor, spans []span) []*nn.Tensor {
	shards := []*nn.Tensor{x}
	if pool.Workers() > 1 && x.Rows >= 64 {
		shards = make([]*nn.Tensor, pool.Shards(x.Rows))
		pool.ForRange(context.Background(), x.Rows, func(s, lo, hi int) { shards[s] = x.SliceRows(lo, hi) })
	}
	busy := make([][]time.Duration, len(shards))
	a0 := mallocs()
	t0 := time.Now()
	pool.ForEach(context.Background(), len(shards), func(s int) {
		busy[s] = make([]time.Duration, len(layers))
		for i, l := range layers {
			t := time.Now()
			shards[s] = l.Forward(shards[s], false)
			busy[s][i] = time.Since(t)
		}
	})
	wall := time.Since(t0)
	allocs := mallocs() - a0
	var total time.Duration
	perLayer := make([]time.Duration, len(layers))
	for _, d := range busy {
		for i := range d {
			perLayer[i] += d[i]
			total += d[i]
		}
	}
	for i := range layers {
		spans[i].d += time.Duration(float64(wall) * float64(perLayer[i]) / float64(max(total, 1)))
		spans[i].allocs += allocs / uint64(len(layers))
	}
	return shards
}
