package localize

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// pointerLogLikelihood is the scoring loop as it read before the columnar
// view: one pointer per ring and math.Min. It is the reference that
// view.logLik must reproduce.
func pointerLogLikelihood(robustCap float64, rings []*recon.Ring, s geom.Vec) float64 {
	var ll float64
	for _, r := range rings {
		p := r.Pull(s)
		ll -= math.Min(p*p, robustCap) / 2
	}
	return ll
}

// sameScore reports whether two scores have the same bits; any NaN
// matches any NaN, since scores are only ever compared.
func sameScore(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specials are the edge values the differential tests mix into ring
// columns and directions.
var specials = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060,
	math.Inf(1), math.Inf(-1), math.NaN(),
	1, -1, math.MaxFloat64,
}

// robustCaps are the RobustCap values the differential tests cover: the
// default, a tiny and an infinite cap for the kernel, and the caps (±0,
// negative, NaN) where math.Min and MINPD disagree and the scalar loop
// must take over.
var robustCaps = []float64{9, 1e-300, math.Inf(1), 0, math.Copysign(0, -1), -1, math.NaN()}

// edgeSource is the direction the differential tests' rings pass near.
var edgeSource = geom.Vec{X: 0.3, Y: -0.2, Z: 0.93}.Unit()

// edgeRings builds n rings through edgeSource with widths between 0.005
// and 0.2, so pulls near it stay under the cap and every divide shows in
// the score. A share rate of the axis, η and dη values is drawn from
// specials instead, and every seventh ring then has dη = 0.
func edgeRings(n int, rate float64, rng *xrand.RNG) []*recon.Ring {
	pick := func(ordinary float64) float64 {
		if rng.Float64() < rate {
			return specials[rng.IntN(len(specials))]
		}
		return ordinary
	}
	rings := make([]*recon.Ring, n)
	for i := range rings {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		deta := pick(rng.Uniform(0.005, 0.2))
		if rate > 0 && i%7 == 6 {
			deta = 0
		}
		rings[i] = &recon.Ring{Ring: geom.Ring{
			Axis: geom.Vec{X: pick(x), Y: pick(y), Z: pick(z)},
			Eta:  pick(edgeSource.Dot(axis) + rng.Gaussian(0, 0.05)),
			DEta: deta,
		}}
	}
	return rings
}

// specialRates are the shares of special values the differential tests
// mix into ring columns: none, where every score is finite, and one in
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

var ringCounts = []int{0, 1, 2, 3, 7, 64, 701}

// TestViewMatchesPointerLoop: the columnar scalar loop scores like the
// pointer-per-ring loop it replaced, edge values included.
func TestViewMatchesPointerLoop(t *testing.T) {
	rng := xrand.New(1)
	for _, rate := range specialRates {
		for _, n := range ringCounts {
			rings := edgeRings(n, rate, rng)
			v := newView(rings)
			for _, c := range robustCaps {
				for _, s := range edgeDirs(rng) {
					want := pointerLogLikelihood(c, rings, s)
					if got := v.logLik(c, s); !sameScore(got, want) {
						t.Errorf("rate=%v n=%d cap=%v s=%v: view %v (%#x), pointer loop %v (%#x)",
							rate, n, c, s, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestLogLikPairMatchesScalar: the pair kernel gives each direction the
// scalar loop's score bit for bit, for every ring count, edge value and
// cap, and whichever direction it is paired with.
func TestLogLikPairMatchesScalar(t *testing.T) {
	rng := xrand.New(2)
	for _, rate := range specialRates {
		for _, n := range ringCounts {
			v := newView(edgeRings(n, rate, rng))
			dirs := edgeDirs(rng)
			for _, c := range robustCaps {
				for i, a := range dirs {
					b := dirs[(i*7+3)%len(dirs)]
					la, lb := v.logLikPair(c, a, b)
					if want := v.logLik(c, a); !sameScore(la, want) {
						t.Errorf("rate=%v n=%d cap=%v: lane a %v, scalar %v (a=%v)", rate, n, c, la, want, a)
					}
					if want := v.logLik(c, b); !sameScore(lb, want) {
						t.Errorf("rate=%v n=%d cap=%v: lane b %v, scalar %v (b=%v)", rate, n, c, lb, want, b)
					}
				}
			}
		}
	}
}

// TestScoreOddAndEvenCounts: scoring a candidate list pairs candidates and
// sends an odd last one to the scalar loop; every count gives each
// candidate its scalar score.
func TestScoreOddAndEvenCounts(t *testing.T) {
	rng := xrand.New(3)
	v := newView(edgeRings(64, 0.2, rng))
	dirs := edgeDirs(rng)
	for _, c := range robustCaps {
		for n := 0; n <= len(dirs); n++ {
			cands := make([]scored, n)
			for i := range cands {
				cands[i] = scored{dir: dirs[i], ll: 12345}
			}
			v.score(c, cands)
			for i, cand := range cands {
				if want := v.logLik(c, cand.dir); !sameScore(cand.ll, want) {
					t.Errorf("cap=%v count=%d candidate %d: %v, scalar %v", c, n, i, cand.ll, want)
				}
			}
		}
	}
}

// TestLogLikPairNoOverread: the kernel reads exactly len(x) elements of
// each column. Every column's backing array holds NaN past its end, which
// would turn both scores NaN if read.
func TestLogLikPairNoOverread(t *testing.T) {
	rng := xrand.New(4)
	s := geom.FromSpherical(geom.Rad(25), geom.Rad(140))
	for _, n := range ringCounts {
		full := newView(syntheticRings(s, n, 0.02, 0, rng))
		fenced := func(col []float64) []float64 {
			backing := make([]float64, len(col)+8)
			for i := range backing {
				backing[i] = math.NaN()
			}
			return backing[:copy(backing, col)]
		}
		v := &view{x: fenced(full.x), y: fenced(full.y), z: fenced(full.z), eta: fenced(full.eta), deta: fenced(full.deta)}
		b := geom.FromSpherical(geom.Rad(60), geom.Rad(10))
		la, lb := v.logLikPair(9, s, b)
		if math.IsNaN(la) || math.IsNaN(lb) {
			t.Fatalf("n=%d: NaN score (%v, %v): the kernel read past a column", n, la, lb)
		}
		if la != full.logLik(9, s) || lb != full.logLik(9, b) {
			t.Errorf("n=%d: scores (%v, %v), scalar (%v, %v)", n, la, lb, full.logLik(9, s), full.logLik(9, b))
		}
	}
}

// FuzzLogLikelihoodPair drives the differential test from the fuzzer: up
// to 40 rings, with the cap, both directions and the ring columns taken
// from the fuzz bytes as raw float64 bit patterns (cycling when the bytes
// run out). Both lanes must give the scalar loop's bits, any NaN matching
// any NaN.
func FuzzLogLikelihoodPair(f *testing.F) {
	le := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(uint8(3), le(9, 0, 0, 1, 0.6, 0, 0.8, 0.3, -0.2, 0.9, 0.4, 0.02))
	f.Add(uint8(7), le(1e-300, math.NaN(), 0, 1, math.Inf(1), 0, 0, 0x1p-1070, 0, 0))
	f.Add(uint8(0), le(math.Inf(1)))
	f.Add(uint8(2), le(math.NaN(), 0.6, 0.8, 0, -0.6, 0.8, 0, 1, 0, 0, 0.5, 0.01))
	f.Fuzz(func(t *testing.T, rings uint8, data []byte) {
		n := int(rings % 41)
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
		a := geom.Vec{X: take(), Y: take(), Z: take()}
		b := geom.Vec{X: take(), Y: take(), Z: take()}
		cols := make([]float64, 5*n)
		for i := range cols {
			cols[i] = take()
		}
		v := &view{x: cols[:n], y: cols[n : 2*n], z: cols[2*n : 3*n], eta: cols[3*n : 4*n], deta: cols[4*n:]}
		la, lb := v.logLikPair(robustCap, a, b)
		for _, c := range []struct {
			name      string
			got, want float64
		}{{"a", la, v.logLik(robustCap, a)}, {"b", lb, v.logLik(robustCap, b)}} {
			if !sameScore(c.got, c.want) {
				t.Fatalf("n=%d cap=%v a=%v b=%v: lane %s %v (%#x), scalar %v (%#x)", n, robustCap, a, b,
					c.name, c.got, math.Float64bits(c.got), c.want, math.Float64bits(c.want))
			}
		}
	})
}
