//go:build amd64

package sky

import (
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/xrand"
)

// TestKernelOn: the dispatch runs the kernel exactly when math.Exp is on
// its FMA path and the host has AVX2 and FMA, so CI cannot pass on a
// silent fallback to the scalar loop. On Linux the host's features are
// read from /proc/cpuinfo, independently of the kernel's own CPUID check.
func TestKernelOn(t *testing.T) {
	has := hasAVX2FMA()
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		flags := map[string]bool{}
		for _, line := range strings.Split(string(b), "\n") {
			if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				for _, f := range strings.Fields(list) {
					flags[f] = true
				}
				break
			}
		}
		if listed := flags["avx2"] && flags["fma"]; listed != has {
			t.Errorf("/proc/cpuinfo lists avx2 and fma: %t; CPUID and XGETBV say %t", listed, has)
		}
		has = flags["avx2"] && flags["fma"]
	}
	want := has && expOnFMAPath()
	if kernelOn != want {
		t.Fatalf("kernel on: %t; want %t (AVX2 and FMA: %t, math.Exp on its FMA path: %t)", kernelOn, want, has, expOnFMAPath())
	}
	t.Logf("kernel on: %t (AVX2 and FMA: %t, math.Exp on its FMA path: %t)", kernelOn, has, expOnFMAPath())
}

// TestQuadsTail: with the kernel on, a batch that leaves 1, 2 or 3
// directions after its whole quads goes through the kernel entire. The
// padded last quad gives each real direction the scalar loop's bits and
// writes nothing past the batch.
func TestQuadsTail(t *testing.T) {
	if !kernelOn {
		t.Skip("the kernel does not run on this host")
	}
	rng := xrand.New(8)
	for _, rate := range specialRates {
		rings, probs := edgeRings(64, rate, rng)
		dirs := edgeDirs(rng)
		for _, c := range robustCaps {
			m := newMixture(c, rings, probs)
			for _, tail := range []int{1, 2, 3} {
				for _, whole := range []int{0, 1, 5} {
					batch := dirs[len(dirs)-4*whole-tail:]
					out := make([]float64, len(batch)+4)
					for i := range out {
						out[i] = 12345
					}
					if n := m.quads(batch, out[:len(batch)]); n != len(batch) {
						t.Fatalf("kernel evaluated %d of %d directions", n, len(batch))
					}
					for i, d := range batch {
						if want := m.at(d); !sameValue(out[i], want) {
							t.Errorf("rate=%v cap=%v count=%d: direction %d (%v) %v (%#x), scalar %v (%#x)",
								rate, c, len(batch), i, d, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
						}
					}
					for i := len(batch); i < len(out); i++ {
						if out[i] != 12345 {
							t.Fatalf("count=%d: kernel wrote %v past the batch, at %d", len(batch), out[i], i)
						}
					}
				}
			}
		}
	}
}
