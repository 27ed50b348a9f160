package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestContainmentDefinition(t *testing.T) {
	// The paper's definition: the largest error observed in at most p of
	// the trials — rank ceil(p·n) of the sorted sample.
	xs := []float64{5, 1, 3, 2, 4} // sorted: 1 2 3 4 5
	if got := Containment(xs, 0.68); got != 4 {
		t.Errorf("68%% of 5 = %v, want 4 (rank ceil(3.4)=4)", got)
	}
	if got := Containment(xs, 0.95); got != 5 {
		t.Errorf("95%% of 5 = %v, want 5", got)
	}
	if got := Containment(xs, 0.2); got != 1 {
		t.Errorf("20%% of 5 = %v, want 1", got)
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Containment mutated its input")
	}
	if !math.IsNaN(Containment(nil, 0.68)) {
		t.Error("empty input should give NaN")
	}
	c68, c95 := Containment68And95(xs)
	if c68 != 4 || c95 != 5 {
		t.Errorf("Containment68And95 = %v, %v", c68, c95)
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := StdDev(xs); math.Abs(got-2.138) > 0.001 {
		t.Errorf("StdDev = %v, want ~2.138 (sample)", got)
	}
	if StdDev([]float64{3}) != 0 {
		t.Error("StdDev of singleton should be 0")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean of empty should be NaN")
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	lo, hi := MinMax(xs)
	if lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v, %v", lo, hi)
	}
	if got := Containment([]float64{1, 2, 3, 4, 5}, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
}

func TestOverMetaTrials(t *testing.T) {
	m := OverMetaTrials([]float64{10, 12, 14})
	if m.Mean != 12 {
		t.Errorf("meta mean = %v", m.Mean)
	}
	// Standard error = sd/sqrt(3) = 2/sqrt(3).
	if math.Abs(m.Err-2/math.Sqrt(3)) > 1e-9 {
		t.Errorf("meta err = %v", m.Err)
	}
	if m.String() == "" {
		t.Error("empty MeanErr string")
	}
	if !math.IsNaN(OverMetaTrials(nil).Mean) {
		t.Error("empty meta-trials should give NaN mean")
	}
}

func TestTimingSummary(t *testing.T) {
	s := SummarizeTimings([]float64{10, 20, 30})
	if s.MeanMs != 20 || s.MinMs != 10 || s.MaxMs != 30 || s.N != 3 {
		t.Errorf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty summary string")
	}
	if z := SummarizeTimings(nil); z.N != 0 {
		t.Error("empty summary not zero")
	}
}

func TestContainmentOrderingProperty(t *testing.T) {
	f := func(seed uint64, rawN uint8) bool {
		n := int(rawN%60) + 1
		rng := newTestRNG(seed)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.next() * 100
		}
		lo, hi := MinMax(xs)
		c50 := Containment(xs, 0.5)
		c68 := Containment(xs, 0.68)
		c95 := Containment(xs, 0.95)
		return lo <= c50 && c50 <= c68 && c68 <= c95 && c95 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// newTestRNG is a tiny deterministic generator local to the stats tests
// (stats must not depend on xrand).
type testRNG struct{ s uint64 }

func newTestRNG(seed uint64) *testRNG { return &testRNG{s: seed*2862933555777941757 + 3037000493} }

func (r *testRNG) next() float64 {
	r.s = r.s*6364136223846793005 + 1442695040888963407
	return float64(r.s>>11) / (1 << 53)
}
