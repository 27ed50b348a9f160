//go:build amd64

package sky_test

// The golden test pins the float bits of the mixture surface and the bytes
// of the sky-map payloads built from it on fixed ring sets. Its values
// were recorded from the pointer-per-ring mixture loop that preceded the
// columnar view and the AVX2/FMA kernel, so it asserts that the rewrite
// kept every bit. It is amd64-only: on arm64 the compiler may fuse
// multiply-adds, which changes low bits. The bits are those of math.Exp's
// FMA path; where math.Exp takes its other path (no FMA, or
// GODEBUG=cpu.fma=off) about 9% of its results differ in the last bit,
// and the test skips.

import (
	"crypto/sha256"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
	"repro/internal/sky"
	"repro/internal/skymap"
	"repro/internal/xrand"
)

type mixtureCase struct {
	name  string
	src   geom.Vec
	rings []*recon.Ring
	probs []float64
}

// goldenMixture builds nSrc rings through src and nBkg rings with random
// cone angles, in shuffled order, with widths drawn from [wLo, wHi] and
// classifier-like background probabilities: low for source rings, high
// for background rings, with some overlap.
func goldenMixture(name string, src geom.Vec, nSrc, nBkg int, wLo, wHi float64, rng *xrand.RNG) mixtureCase {
	c := mixtureCase{name: name, src: src}
	for i := 0; i < nSrc+nBkg; i++ {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		w := rng.Uniform(wLo, wHi)
		eta, p := geom.Clamp(src.Dot(axis)+rng.Gaussian(0, w), -1, 1), 0.3*math.Pow(rng.Float64(), 3)
		if i >= nSrc {
			eta, p = rng.Uniform(-1, 1), 1-0.5*math.Pow(rng.Float64(), 2)
		}
		c.rings = append(c.rings, &recon.Ring{Ring: geom.Ring{Axis: axis, Eta: eta, DEta: w}})
		c.probs = append(c.probs, p)
	}
	rng.Shuffle(len(c.rings), func(i, j int) {
		c.rings[i], c.rings[j] = c.rings[j], c.rings[i]
		c.probs[i], c.probs[j] = c.probs[j], c.probs[i]
	})
	return c
}

func goldenMixtureCases() []mixtureCase {
	return []mixtureCase{
		// A clean burst: narrow rings, probabilities near zero.
		goldenMixture("clean", geom.FromSpherical(geom.Rad(25), geom.Rad(100)), 80, 0, 0.02, 0.02, xrand.New(21)),
		// The paper's 1:2.2 source:background mix.
		goldenMixture("mix", geom.FromSpherical(geom.Rad(28), geom.Rad(143)), 190, 420, 0.03, 0.03, xrand.New(22)),
		// Per-ring calibrated widths, as the flown product uses.
		goldenMixture("calibrated", geom.FromSpherical(geom.Rad(40), geom.Rad(-60)), 150, 300, 0.01, 0.15, xrand.New(23)),
		// A source just above the horizon.
		goldenMixture("horizon", geom.FromSpherical(geom.Rad(86), geom.Rad(20)), 120, 200, 0.02, 0.06, xrand.New(24)),
	}
}

func hexf(vs ...float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	return strings.Join(parts, " ")
}

// goldenMixtureLines renders every output the golden test pins, one per
// line: the mixture surface at eight directions (the source, three
// around it, the zenith, two at the horizon and one below it), then the
// sha256 of the mixture and no-ML payloads at Workers 1 and 3.
func goldenMixtureLines() []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	for _, c := range goldenMixtureCases() {
		cfg := localize.DefaultConfig()
		dirs := []geom.Vec{
			c.src,
			geom.ConeDirection(c.src, geom.Rad(1), geom.Rad(30)),
			geom.ConeDirection(c.src, geom.Rad(3), geom.Rad(200)),
			geom.ConeDirection(c.src, geom.Rad(10), geom.Rad(90)),
			{Z: 1},
			geom.FromSpherical(geom.Rad(89.9), geom.Rad(10)),
			geom.FromSpherical(math.Pi/2, geom.Rad(-120)),
			geom.FromSpherical(geom.Rad(100), geom.Rad(45)),
		}
		vals := make([]float64, len(dirs))
		sky.MixtureEvaluator(&cfg, c.rings, c.probs)(dirs, vals)
		add("%s mixture %s", c.name, hexf(vals...))
		for _, probs := range [][]float64{c.probs, nil} {
			kind := "mixture"
			if probs == nil {
				kind = "noml"
			}
			var sums []string
			for _, w := range []int{1, 3} {
				m := skymap.FromRings(&cfg, c.rings, probs, skymap.Options{Workers: w})
				sums = append(sums, fmt.Sprintf("w%d=%x", w, sha256.Sum256(m.Encode())))
			}
			add("%s %s payload %s", c.name, kind, strings.Join(sums, " "))
		}
	}
	return out
}

// expOnFMAPath reports whether math.Exp takes its FMA path in this
// process: there math.Exp(-0.0323553) is 0x3feefb2ffdf4d55d, on the other
// path 0x3feefb2ffdf4d55c.
func expOnFMAPath() bool {
	return math.Float64bits(math.Exp(-0.0323553)) == 0x3feefb2ffdf4d55d
}

// TestGoldenMixture: the mixture surface and the payloads built from it
// keep the bits they had before the columnar rewrite.
func TestGoldenMixture(t *testing.T) {
	if !expOnFMAPath() {
		t.Skip("math.Exp is not on its FMA path here; the golden bits are that path's")
	}
	got := goldenMixtureLines()
	want := strings.Split(strings.TrimSpace(goldenMixtureWant), "\n")
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

const goldenMixtureWant = `
clean mixture c04e1ab626513fe3 c0528e8c92260195 c060dc40f340cea1 c075eeca93f56c2f c07f32513e84d320 c080d368bceb2978 c081a8ce44677590 c081cb7b9791ef1b
clean mixture payload w1=3325dec7be013b0a1c2b4664acf2177a458b186a4f643fea9e928f7503b693f5 w3=3325dec7be013b0a1c2b4664acf2177a458b186a4f643fea9e928f7503b693f5
clean noml payload w1=7525d6defb38e097dee8abac796b03329c72d5d8a5ea751587062fa8009c76dc w3=7525d6defb38e097dee8abac796b03329c72d5d8a5ea751587062fa8009c76dc
mix mixture c09fa5e8e384ea28 c09fdfd91c346671 c0a076bdbb81cd02 c0a58851690bec17 c0a82c8b7716cbdd c0a9708467704167 c0a96cb526be9dd1 c0a93d136977de97
mix mixture payload w1=0f877cb0307e0700351d88b012eefdc13dbac3860977b347f66a82492d04b1f9 w3=0f877cb0307e0700351d88b012eefdc13dbac3860977b347f66a82492d04b1f9
mix noml payload w1=f4e401eb47b4214d3d9534ef8e2cae436ab227622d39e4a54d93d713f5fb5937 w3=f4e401eb47b4214d3d9534ef8e2cae436ab227622d39e4a54d93d713f5fb5937
calibrated mixture c095b57003382a54 c095bb8af5f1672b c0963b33da8912b0 c097e7df44388f4e c0a05f617f0bf47b c0a0d1938c1048bf c0a14e4e485e2e53 c0a1752d015832b3
calibrated mixture payload w1=129493c64dde26159067af010552da7eff78c56a004961c2b00d160f81e89b09 w3=129493c64dde26159067af010552da7eff78c56a004961c2b00d160f81e89b09
calibrated noml payload w1=db650c50e6f0d773de4505602210441596976dfc14c8d61c2eed289626b3cf7b w3=db650c50e6f0d773de4505602210441596976dfc14c8d61c2eed289626b3cf7b
horizon mixture c08ecad499349c99 c08eee68c1245ebd c090109a8b0f7d80 c093f0352a58c101 c09aebb2a194935f c094313c97604cbd c09b62dce8cc5219 c09935137f4f4946
horizon mixture payload w1=9d7a51388df9bd5ada04eaea4d98547acf65ed17a51caa91fa21c399184a921e w3=9d7a51388df9bd5ada04eaea4d98547acf65ed17a51caa91fa21c399184a921e
horizon noml payload w1=dacf5735c7db2cdcfa83de197c08ba671362bf1656708833708b86f999c548dd w3=dacf5735c7db2cdcfa83de197c08ba671362bf1656708833708b86f999c548dd
`
