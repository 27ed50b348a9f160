package sky

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// pointerMixture is the mixture surface as it read before the columnar
// view: one ring pointer per pair, p recomputed per pair. It is the
// reference that the scalar column loop must reproduce.
func pointerMixture(cfg *localize.Config, rings []*recon.Ring, bkgProb []float64) func(geom.Vec) float64 {
	floor := math.Exp(-cfg.RobustCap / 2)
	const pMin = 0.02
	return func(d geom.Vec) float64 {
		var ll float64
		for j, r := range rings {
			pull := r.Pull(d)
			p := pMin + (1-pMin)*bkgProb[j]
			ll += math.Log((1-p)*math.Exp(-pull*pull/2) + p*floor)
		}
		return ll
	}
}

// sameValue reports whether two surface values have the same bits; any
// NaN matches any NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specials are the edge values the differential tests mix into ring
// columns, probabilities and directions.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, math.MaxFloat64,
}

// robustCaps are the RobustCap values the differential tests cover: the
// default, a zero cap of either sign (floor 1), an infinite cap (pf = 0,
// so Log sees Exp's subnormal and zero results), a negative cap whose
// floor exceeds 1, and NaN.
var robustCaps = []float64{9, 0, math.Copysign(0, -1), math.Inf(1), -40, math.NaN()}

// edgeSource is the direction the differential tests' rings pass near.
var edgeSource = geom.Vec{X: 0.3, Y: -0.2, Z: 0.93}.Unit()

// edgeRings builds n rings near edgeSource with classifier-like
// probabilities. Widths span 0.0004 to 0.2, so pulls near the source run
// from 0 past 38, where math.Exp's result is subnormal, and far from it
// past 10⁵, where x·log₂e leaves the int32 range. A share rate of the
// axis, η, dη and probability values is drawn from specials instead,
// every seventh ring then has dη = 0, and probabilities below 0 and above
// 1 show up as well.
func edgeRings(n int, rate float64, rng *xrand.RNG) ([]*recon.Ring, []float64) {
	pick := func(ordinary float64) float64 {
		if rng.Float64() < rate {
			return specials[rng.IntN(len(specials))]
		}
		return ordinary
	}
	rings := make([]*recon.Ring, n)
	probs := make([]float64, n)
	for i := range rings {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		deta := pick(math.Pow(10, rng.Uniform(-3.4, -0.7)))
		if rate > 0 && i%7 == 6 {
			deta = 0
		}
		rings[i] = &recon.Ring{Ring: geom.Ring{
			Axis: geom.Vec{X: pick(x), Y: pick(y), Z: pick(z)},
			Eta:  pick(edgeSource.Dot(axis) + rng.Gaussian(0, 0.02)),
			DEta: deta,
		}}
		probs[i] = pick(rng.Float64())
		if rate > 0 && i%11 == 10 {
			probs[i] = rng.Uniform(-0.5, 1.5)
		}
	}
	return rings, probs
}

// specialRates are the shares of special values the differential tests
// mix into ring columns: none, where every value is finite, and one in
// five.
var specialRates = []float64{0, 0.2}

// edgeDirs returns edgeSource, unit directions around it and directions
// with special components.
func edgeDirs(rng *xrand.RNG) []geom.Vec {
	dirs := []geom.Vec{edgeSource}
	for i := 0; i < 6; i++ {
		dirs = append(dirs, geom.ConeDirection(edgeSource, rng.Uniform(0, geom.Rad(20)), rng.Uniform(0, 2*math.Pi)))
	}
	for _, v := range specials {
		dirs = append(dirs, geom.Vec{X: v, Y: 0.6, Z: 0.8}, geom.Vec{X: 0.6, Y: v, Z: v})
	}
	return dirs
}

var ringCounts = []int{0, 1, 2, 3, 5, 64, 701}

// TestColumnLoopMatchesPointerLoop: the scalar column loop, with its
// per-ring constants, gives the pointer-per-ring loop's bits, edge values
// included.
func TestColumnLoopMatchesPointerLoop(t *testing.T) {
	rng := xrand.New(1)
	for _, rate := range specialRates {
		for _, n := range ringCounts {
			rings, probs := edgeRings(n, rate, rng)
			for _, c := range robustCaps {
				cfg := localize.Config{RobustCap: c}
				ref := pointerMixture(&cfg, rings, probs)
				m := newMixture(c, rings, probs)
				for _, d := range edgeDirs(rng) {
					if got, want := m.at(d), ref(d); !sameValue(got, want) {
						t.Errorf("rate=%v n=%d cap=%v d=%v: columns %v (%#x), pointer loop %v (%#x)",
							rate, n, c, d, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestQuadsMatchScalar: evaluating a batch gives every direction the
// scalar loop's bits, for every ring count, edge value and cap, with
// direction counts 0 to 9 (whole and partial quads) and whatever the
// directions are evaluated with.
func TestQuadsMatchScalar(t *testing.T) {
	rng := xrand.New(2)
	for _, rate := range specialRates {
		for _, n := range ringCounts {
			rings, probs := edgeRings(n, rate, rng)
			dirs := edgeDirs(rng)
			for _, c := range robustCaps {
				m := newMixture(c, rings, probs)
				for k := 0; k <= 9; k++ {
					batch := make([]geom.Vec, k)
					for i := range batch {
						batch[i] = dirs[(i*7+k*3)%len(dirs)]
					}
					out := make([]float64, k)
					m.eval(batch, out)
					for i, d := range batch {
						if want := m.at(d); !sameValue(out[i], want) {
							t.Errorf("rate=%v n=%d cap=%v count=%d: direction %d (%v) %v (%#x), scalar %v (%#x)",
								rate, n, c, k, i, d, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

// oneRing returns a one-ring mixture with axis (0, 0, 1), η = 0 and
// dη = 1, so the pull at (0, 0, z) is z and the value is the ring's term
// alone: log(q·exp(−z²/2) + pf).
func oneRing(q, pf float64) *mixture {
	return &mixture{x: []float64{0}, y: []float64{0}, z: []float64{1}, eta: []float64{0}, deta: []float64{1}, q: []float64{q}, pf: []float64{pf}}
}

// checkLanes evaluates the four pulls in one quad against m and compares
// each lane with the scalar loop.
func checkLanes(t *testing.T, what string, m *mixture, pulls [4]float64) {
	t.Helper()
	dirs := make([]geom.Vec, 4)
	for i, p := range pulls {
		dirs[i] = geom.Vec{Z: p}
	}
	out := make([]float64, 4)
	m.eval(dirs, out)
	for i, d := range dirs {
		if want := m.at(d); !sameValue(out[i], want) {
			t.Errorf("%s, pull %v (%#x): %v (%#x), scalar %v (%#x)", what, d.Z, math.Float64bits(d.Z),
				out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
}

// TestQuadsExpExact isolates math.Exp in one lane: with q = 1 and
// pf = −math.Exp(x) the term is the kernel's exp minus the scalar's,
// exactly 0 (value −Inf) when the two agree and ±1 ulp or more (a finite
// value or NaN) when they do not. The pulls sweep the whole argument
// range: ordinary, subnormal results (x from about −745 to −709), the
// underflow to 0, x·log₂e beyond the int32 range, ±Inf and NaN.
func TestQuadsExpExact(t *testing.T) {
	rng := xrand.New(5)
	var pulls []float64
	for p := 36.5; p < 39; p += 0.0025 {
		pulls = append(pulls, p)
	}
	for i := 0; i < 2000; i++ {
		pulls = append(pulls, rng.Uniform(0, 40), math.Pow(10, rng.Uniform(-8, 2)))
	}
	// Uniform in x over math.Exp's whole finite range: the fused
	// reductions and the Taylor chain differ from unfused ones only on a
	// small share of arguments.
	for i := 0; i < 20000; i++ {
		pulls = append(pulls, math.Sqrt(-2*rng.Uniform(-746, 0)))
	}
	pulls = append(pulls, 0, math.Copysign(0, -1), 1e-300, 1e-160, math.Sqrt(2*709.782712893384),
		math.Sqrt(2*745.1332191019412), 65536, 1e5, 1e10, 1e155, 1e200, math.Inf(1), math.Inf(-1), math.NaN())
	for len(pulls)%4 != 0 {
		pulls = append(pulls, 1)
	}
	for i := 0; i < len(pulls); i += 4 {
		for k := 0; k < 4; k++ {
			// One lane at a time carries the cancelling pf, the others
			// ride along with the same ring.
			p := pulls[i+k]
			m := oneRing(1, -math.Exp(-p*p/2))
			checkLanes(t, "exp", m, [4]float64{pulls[i], pulls[i+1], pulls[i+2], pulls[i+3]})
		}
	}
}

// TestQuadsLogExact isolates math.Log in one lane: at pull 0 the term is
// q·1 + (−0) = q exactly, and with one ring the value is its log. The
// inputs cover √2/2 and its neighbours at many exponents (the boundary of
// the mantissa compare), subnormals, ±0, negatives, ±Inf, NaN and random
// bit patterns over the whole exponent range.
func TestQuadsLogExact(t *testing.T) {
	rng := xrand.New(6)
	hs := math.Sqrt2 / 2
	var vals []float64
	for e := -1074; e <= 1023; e++ {
		for _, f := range []float64{hs, math.Nextafter(hs, 0), math.Nextafter(hs, 1), 0.5, math.Nextafter(1, 0)} {
			vals = append(vals, math.Ldexp(f, e))
		}
	}
	vals = append(vals, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64,
		1, math.Nextafter(1, 2), -1, -math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(), -math.NaN())
	for i := 0; i < 4000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()&^(1<<63)))
	}
	for len(vals)%4 != 0 {
		vals = append(vals, 2)
	}
	neg0 := math.Copysign(0, -1)
	for _, v := range vals {
		checkLanes(t, "log", oneRing(v, neg0), [4]float64{0, neg0, 0, 0})
	}
	// Four different inputs in the four lanes: pull 0 in lane k, far
	// pulls (exp → 0, term −0 + pf) elsewhere.
	for i := 0; i < len(vals); i += 4 {
		for k := 0; k < 4; k++ {
			var pulls [4]float64
			for l := range pulls {
				if l != k {
					pulls[l] = 1e10
				}
			}
			checkLanes(t, "log lanes", oneRing(vals[i+k], vals[(i+k+1)%len(vals)]), pulls)
		}
	}
}

// TestQuadsNoOverread: the kernel reads exactly len(x) elements of each
// column. Every column's backing array holds NaN past its end, which
// would turn the values NaN if read.
func TestQuadsNoOverread(t *testing.T) {
	rng := xrand.New(4)
	s := geom.FromSpherical(geom.Rad(25), geom.Rad(140))
	for _, n := range ringCounts {
		rings := RingsAround(s, n, 0.02, rng)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		full := newMixture(9, rings, probs)
		fenced := func(col []float64) []float64 {
			backing := make([]float64, len(col)+8)
			for i := range backing {
				backing[i] = math.NaN()
			}
			return backing[:copy(backing, col)]
		}
		m := &mixture{x: fenced(full.x), y: fenced(full.y), z: fenced(full.z), eta: fenced(full.eta),
			deta: fenced(full.deta), q: fenced(full.q), pf: fenced(full.pf)}
		dirs := []geom.Vec{s, geom.FromSpherical(geom.Rad(60), geom.Rad(10)), {Z: 1}, geom.FromSpherical(geom.Rad(80), 2)}
		out := make([]float64, len(dirs))
		m.eval(dirs, out)
		for i, d := range dirs {
			if math.IsNaN(out[i]) {
				t.Fatalf("n=%d: NaN value at direction %d: the kernel read past a column", n, i)
			}
			if want := full.at(d); out[i] != want {
				t.Errorf("n=%d direction %d: %v, scalar %v", n, i, out[i], want)
			}
		}
	}
}

// FuzzMixtureQuad drives the differential test from the fuzzer: up to 40
// rings and up to 9 directions, with the cap, the directions, the ring
// columns and the probabilities taken from the fuzz bytes as raw float64
// bit patterns (cycling when the bytes run out). Every direction must get
// the scalar loop's bits, any NaN matching any NaN.
func FuzzMixtureQuad(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(3), uint8(4), le(9, 0.3, -0.2, 0.9, 0, 0, 1, 0.6, 0, 0.8, 0.4, 0.02, 0.1))
	f.Add(uint8(7), uint8(5), le(math.Inf(1), math.NaN(), 0, 1, math.Inf(1), 0, 0, 0x1p-1070, 0, 0, 1.5, -0.2))
	f.Add(uint8(0), uint8(0), le(9))
	f.Add(uint8(2), uint8(9), le(-40, 0.6, 0.8, 0, -0.6, 0.8, 0, 1, 0, 0, 0.5, 0.0004, 0.3, 1e5))
	f.Fuzz(func(t *testing.T, rings, ndirs uint8, data []byte) {
		n, k := int(rings%41), int(ndirs%10)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		next := 0
		take := func() float64 {
			if len(vals) == 0 {
				return 0.5
			}
			v := vals[next%len(vals)]
			next++
			return v
		}
		robustCap := take()
		dirs := make([]geom.Vec, k)
		for i := range dirs {
			dirs[i] = geom.Vec{X: take(), Y: take(), Z: take()}
		}
		rs := make([]*recon.Ring, n)
		probs := make([]float64, n)
		for i := range rs {
			rs[i] = &recon.Ring{Ring: geom.Ring{Axis: geom.Vec{X: take(), Y: take(), Z: take()}, Eta: take(), DEta: take()}}
			probs[i] = take()
		}
		m := newMixture(robustCap, rs, probs)
		out := make([]float64, k)
		m.eval(dirs, out)
		for i, d := range dirs {
			if want := m.at(d); !sameValue(out[i], want) {
				t.Fatalf("n=%d cap=%v direction %d (%v): %v (%#x), scalar %v (%#x)", n, robustCap, i, d,
					out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
			}
		}
	})
}
