//go:build amd64

package localize_test

// The golden test pins the float bits of every localization output on
// fixed ring sets. Its values were recorded from the pointer-per-ring
// implementation that preceded the columnar view and the SSE2 kernel, so
// it asserts that the rewrite kept every bit. It is amd64-only: on arm64
// the compiler may fuse multiply-adds, which changes low bits.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
	"repro/internal/sky"
	"repro/internal/xrand"
)

type goldenCase struct {
	name  string
	rings []*recon.Ring
	seed  uint64   // Approximate's and Localize's RNG seed
	start geom.Vec // Refine's, ErrorRadiusDeg's and LogLikelihood's probe
}

func goldenCases() []goldenCase {
	clean := geom.FromSpherical(geom.Rad(25), geom.Rad(100))
	mix, _ := localize.BenchWorkload()
	// Twelve narrow rings seen from 60° away: fewer than MinRings gate in
	// at the probe, so the gate has to widen.
	starvedSrc := geom.FromSpherical(geom.Rad(20), geom.Rad(-30))
	// A source 30° below the horizon refined from just above it: the
	// SkyOnly projection pins the estimate to the horizon.
	below := geom.FromSpherical(geom.Rad(120), 0)
	return []goldenCase{
		{"clean", localize.SyntheticRings(clean, 80, 0.01, 0, xrand.New(1)), 11,
			geom.FromSpherical(geom.Rad(30), geom.Rad(95))},
		{"mix", mix, 12, geom.FromSpherical(geom.Rad(28), geom.Rad(143))},
		{"starved", localize.SyntheticRings(starvedSrc, 12, 0.01, 0, xrand.New(3)), 13,
			geom.FromSpherical(geom.Rad(80), geom.Rad(-30))},
		{"horizon", localize.SyntheticRings(below, 60, 0.01, 0, xrand.New(8)), 14,
			geom.FromSpherical(geom.Rad(85), 0)},
	}
}

func hexf(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, " ")
}

func hexResult(r localize.Result) string {
	return fmt.Sprintf("%s used=%d iters=%d conv=%t ok=%t",
		hexf(r.Dir.X, r.Dir.Y, r.Dir.Z), r.RingsUsed, r.Iterations, r.Converged, r.OK)
}

// goldenLines renders every output the golden test pins, one per line.
func goldenLines() []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	grid := sky.NewGrid(8)
	for _, c := range goldenCases() {
		cfg := localize.DefaultConfig()
		seeds := localize.Approximate(&cfg, c.rings, xrand.New(c.seed), 3)
		for i, s := range seeds {
			add("%s approx[%d] %s", c.name, i, hexf(s.X, s.Y, s.Z))
		}
		loc := localize.Localize(&cfg, c.rings, xrand.New(c.seed))
		add("%s localize %s", c.name, hexResult(loc))
		ref := localize.Refine(&cfg, c.rings, c.start)
		add("%s refine %s", c.name, hexResult(ref))
		probes := append([]geom.Vec{loc.Dir, ref.Dir, c.start}, seeds...)
		var radius, loglik []float64
		for _, s := range probes {
			radius = append(radius, localize.ErrorRadiusDeg(&cfg, c.rings, s))
			loglik = append(loglik, localize.LogLikelihood(&cfg, c.rings, s))
		}
		add("%s radius %s", c.name, hexf(radius...))
		add("%s loglik %s", c.name, hexf(loglik...))
		// The surface scores an even batch in pairs and an odd batch's
		// last direction through the scalar loop.
		eval := sky.LikelihoodEvaluator(&cfg, c.rings)
		for _, b := range []struct {
			name string
			pix  []int
		}{
			{"surface", []int{0, 5, 37, 101, 200, grid.NumPixels() - 1}},
			{"surface-odd", []int{1, 2, 64, 150, 230}},
		} {
			dirs := make([]geom.Vec, len(b.pix))
			for k, i := range b.pix {
				dirs[k] = grid.Dir(i)
			}
			px := make([]float64, len(dirs))
			eval(dirs, px)
			add("%s %s %s", c.name, b.name, hexf(px...))
		}
	}
	return out
}

// TestGoldenLocalization: approximation seeds, localized and refined
// results, error radii, likelihoods and the sky-map likelihood surface
// keep the bits they had before the columnar rewrite.
func TestGoldenLocalization(t *testing.T) {
	got := goldenLines()
	want := strings.Split(strings.TrimSpace(goldenWant), "\n")
	if len(got) != len(want) {
		t.Errorf("%d golden lines, want %d", len(got), len(want))
	}
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			t.Errorf("line %d:\n got  %s", i, got[i])
			if i < len(want) {
				t.Errorf(" want %s", want[i])
			}
		}
	}
}

const goldenWant = `
clean approx[0] bfb3076e963c31b7 3fda6aadb30e377e 3fed0cb50c81b89d
clean approx[1] bfc78767a3478993 3fda337c64a3b800 3fec98c54fa8dd42
clean approx[2] bf421c45e55eb480 3fdefd7134822853 3febff90448cf791
clean localize bfb3a4dd597d168a 3fdaa46b674de386 3fecfddf40b4d688 used=79 iters=5 conv=true ok=true
clean refine bfb3a4dd597d0ef7 3fdaa46b674de54e 3fecfddf40b4d632 used=79 iters=4 conv=true ok=true
clean radius 3fbc10d81366a0cb 3fbc10d81366a0de 3fd583f499c09595 3fbbf76e2d2e0957 3fd328ec24ff528f 3fd49fefeb0754c4
clean loglik c047247c7e5eb0be c047247c7e5eb156 c072d7208f79f65c c048a60b0ee2fb2a c071626d0288d49b c0717e3e46703bf5
clean surface c075026d45473469 c075e6079ebd9680 c075a1cbbd6a48a2 c075d9d1687d7c80 c076514ae3eca740 c076800000000000
clean surface-odd c074fc1df3feda41 c0755e5814359fb6 c0764f0c08a84460 c0762939bf6e885f c07613276468c531
mix approx[0] bfd55d8695260335 3fcff146fd6c8086 3fed1685b6896462
mix approx[1] bfddcd67858feea0 3fccf87664d61548 3feb6081b8811cd7
mix approx[2] bfcbb2a914ffc0c8 3fc9f252af0bcaf3 3fee8f9e21c79d09
mix localize bfd473a46ee211c6 3fd17d58487944a3 3fed08a54cc698dc used=210 iters=4 conv=true ok=true
mix refine bfd473a46ee211c6 3fd17d58487944a3 3fed08a54cc698dc used=210 iters=5 conv=true ok=true
mix radius 3fc1d2e3e0556cc4 3fc1d2e3e0556cc4 3fc30d2512679563 3fc211c94d9e7cc1 3fcc7a715bea0c21 3fcb4d9abe3334f7
mix loglik c09e4d639041b4ba c09e4d639041b4ba c0a0a2f6f75c4281 c09f1b3779f6b073 c0a2ca8288ec945b c0a2eb196423227f
mix surface c0a461dc5b15d12f c0a46ed47147e152 c0a4a17af8d9cd48 c0a421dfc0efadf5 c0a4af217f379fae c0a4af6357e637be
mix surface-odd c0a43a1bd89f536a c0a461fb139910e6 c0a46031eeba5cb2 c0a46e846040b2d1 c0a4586821472594
starved approx[0] 3fd39130d51b9d6e bfc6da0fccfa3af8 3feded64238b02d1
starved approx[1] 3fd32215360ed2df bfd98efaf0bf0f3e 3febbbe361415847
starved approx[2] 3fd3212048319a09 bfd1eee24ae920a3 3fed30e85d5cabc0
starved localize 3fd36580c1546a6a bfc5a13673808aa7 3fee030069e9dbfe used=12 iters=3 conv=true ok=true
starved refine 3fd36580c157bdc4 bfc5a1367388126c 3fee030069e8fb9c used=12 iters=2 conv=true ok=true
starved radius 3fd2eb7865633c53 3fd2eb7865636cb2 3fd337bc7c983892 3fd2eebede97c112 3fe13805969b1f7b 3fe2f92fbf3abb27
starved loglik c00775d06de654a3 c00775d06e0b0906 c04a075331dc7b17 c011f7a98dbf9ffa c0421ca83d340ba0 c042936e293363b3
starved surface c0468ccf1815a1e6 c047c51d3bdfb0de c04b000000000000 c04b000000000000 c049bdca2eb9b2c8 c04a7764b8057080
starved surface-odd c04b000000000000 c04b000000000000 c04b000000000000 c04b000000000000 c04b000000000000
horizon approx[0] 3fee87911b5990fa 3fc1f9b7abff6820 3fd0f0f41b108921
horizon approx[1] 3feb278bb409c448 3fe0e899944f16a1 bf9b6a114a997181
horizon approx[2] 3fecd6d55ebd0a45 bfc3ad3ed8a973a3 3fd9ee4db9a686e8
horizon localize 3fefffe725b27383 bf73f0e23f2397a7 0000000000000000 used=6 iters=4 conv=true ok=true
horizon refine 3fefffe725b2737d bf73f0e23f25c949 0000000000000000 used=6 iters=3 conv=true ok=true
horizon radius 3fe38e3c70ceb94b 3fe38e3c70ceb96a 3fe38d31474ad31e 3fe013c8f8a42c1d 3fe0c53600900ede 3fe02c4f9c076811
horizon loglik c06ff820a2b3dc08 c06ff820a2b3def8 c07049b3b0eeb554 c06e88198084a035 c06e8e7dc24dd6a9 c06ecd2e231f5732
horizon surface c070b06be1b035f0 c070e00000000000 c070e00000000000 c0709ec4a06721b9 c07074d0aec1507a c070e00000000000
horizon surface-odd c070a7cf475d5c4c c070aca367f31184 c070e00000000000 c070e00000000000 c0709957f5c1e6a9
`
