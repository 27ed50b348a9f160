//go:build amd64

package sky

import (
	"math"

	"repro/internal/geom"
)

// kernelOn reports whether the AVX2/FMA kernel in mix_amd64.s evaluates
// the mixture surface in this process. It is decided once: the CPU must
// have AVX2 and FMA with YMM state saved by the OS, and math.Exp must be on
// its FMA path, because the kernel's lanes repeat that path's operations
// and the other path rounds about 9% of its results differently in the
// last bit. Otherwise every direction takes the scalar loop.
var kernelOn = hasAVX2FMA() && expOnFMAPath()

// expOnFMAPath reports whether math.Exp takes its FMA path here:
// math.Exp(-0.0323553) is 0x3feefb2ffdf4d55d there and 0x3feefb2ffdf4d55c
// on the other path (no AVX or FMA, or GODEBUG=cpu.fma=off).
func expOnFMAPath() bool {
	return math.Float64bits(math.Exp(-0.0323553)) == 0x3feefb2ffdf4d55d
}

// quads evaluates dirs, four directions per kernel call, when the kernel
// is on, and returns how many directions it evaluated: all of them, or
// none. A last partial quad is padded with copies of its last direction,
// and only its real lanes are kept. Each lane repeats the scalar loop's
// operations in ring order — the pull in Dot's order with a true divide,
// math.Exp's FMA path step by step, the term's separate multiply and add,
// math.Log's SSE2 path — so every value equals m.at's bit for bit, except
// that a NaN value may carry another NaN payload (TestQuadsMatchScalar,
// FuzzMixtureQuad).
func (m *mixture) quads(dirs []geom.Vec, out []float64) int {
	if !kernelOn {
		return 0
	}
	for i := 0; i < len(dirs); i += 4 {
		var d [4]geom.Vec
		for k := range d {
			d[k] = dirs[min(i+k, len(dirs)-1)]
		}
		lanes := [12]float64{
			d[0].X, d[1].X, d[2].X, d[3].X,
			d[0].Y, d[1].Y, d[2].Y, d[3].Y,
			d[0].Z, d[1].Z, d[2].Z, d[3].Z,
		}
		var quad [4]float64
		mixQuadAVX2(m.x, m.y, m.z, m.eta, m.deta, m.q, m.pf, &lanes, &quad)
		copy(out[i:], quad[:])
	}
	return len(dirs)
}

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS saves YMM
// state (CPUID and XGETBV).
func hasAVX2FMA() bool

// mixQuadAVX2 is the kernel behind quads: out[k] is the surface at
// direction (d[k], d[4+k], d[8+k]). It reads len(x) elements of each
// column; the others must be at least that long.
//
//go:noescape
func mixQuadAVX2(x, y, z, eta, deta, q, pf []float64, d *[12]float64, out *[4]float64)
