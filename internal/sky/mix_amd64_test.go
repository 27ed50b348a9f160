//go:build amd64

package sky

import (
	"os"
	"strings"
	"testing"
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
