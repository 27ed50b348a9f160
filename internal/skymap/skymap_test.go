package skymap

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/localize"
	"repro/internal/recon"
	"repro/internal/xrand"
)

// testRings builds noisy rings through s.
func testRings(s geom.Vec, n int, noise float64, rng *xrand.RNG) []*recon.Ring {
	var rings []*recon.Ring
	for i := 0; i < n; i++ {
		x, y, z := rng.UnitVectorPolarRange(0, math.Pi)
		axis := geom.Vec{X: x, Y: y, Z: z}
		rings = append(rings, &recon.Ring{
			Ring: geom.Ring{Axis: axis, Eta: geom.Clamp(s.Dot(axis)+rng.Gaussian(0, noise), -1, 1), DEta: noise},
		})
	}
	return rings
}

// perPixel adapts a per-direction surface to Build's batch shape.
func perPixel(f func(geom.Vec) float64) func([]geom.Vec, []float64) {
	return func(dirs []geom.Vec, out []float64) {
		for i, d := range dirs {
			out[i] = f(d)
		}
	}
}

func buildTestMap(t testing.TB, opts Options) (*Map, geom.Vec) {
	t.Helper()
	cfg := localize.DefaultConfig()
	s := geom.FromSpherical(geom.Rad(30), geom.Rad(75))
	rings := testRings(s, 120, 0.03, xrand.New(11))
	return FromRings(&cfg, rings, nil, opts), s
}

func TestRoundTripExact(t *testing.T) {
	m, _ := buildTestMap(t, Options{})
	b := m.Encode()
	if len(b) != m.EncodedSize() {
		t.Fatalf("EncodedSize %d, Encode produced %d", m.EncodedSize(), len(b))
	}
	d, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	b2 := d.Encode()
	if !bytes.Equal(b, b2) {
		t.Fatalf("encode→decode→encode not identity: %d vs %d bytes", len(b), len(b2))
	}
	// The decoded map is semantically identical too.
	if d.CoarseBands != m.CoarseBands || d.RefineFactor != m.RefineFactor ||
		d.Temperature != m.Temperature || d.LogFloor != m.LogFloor ||
		d.PeakDir != m.PeakDir || len(d.Tiles) != len(m.Tiles) {
		t.Fatal("decoded header differs from original")
	}
	// Base64 transport round-trips as well.
	d64, err := DecodeBase64(m.EncodeBase64())
	if err != nil {
		t.Fatalf("base64 round trip: %v", err)
	}
	if !bytes.Equal(d64.Encode(), b) {
		t.Fatal("base64 round trip changed the payload")
	}
}

func TestWorkerCountInvariance(t *testing.T) {
	var payloads [][]byte
	for _, w := range []int{1, 2, 7} {
		m, _ := buildTestMap(t, Options{Workers: w})
		payloads = append(payloads, m.Encode())
	}
	for i := 1; i < len(payloads); i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("payload differs between worker counts 1 and %d", []int{1, 2, 7}[i])
		}
	}
}

func TestPayloadSizeBudget(t *testing.T) {
	m, _ := buildTestMap(t, Options{})
	if n := len(m.Encode()); n > 4096 {
		t.Errorf("default payload %d bytes; downlink budget is a few KB", n)
	}
	// The coarse context layer alone stays under a KB.
	if len(m.Coarse) > 1024 {
		t.Errorf("coarse layer %d pixels", len(m.Coarse))
	}
}

func TestEmbeddedContoursMatchRecomputed(t *testing.T) {
	m, _ := buildTestMap(t, Options{})
	d, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	thr, area := d.contours(0.68)
	thr68, area68 := thr[0], area[0]
	thr, area = d.contours(0.90)
	thr90, area90 := thr[0], area[0]
	if float32(thr68) != d.Thr68 || float32(area68) != d.Area68 {
		t.Errorf("68%% contour: recomputed (%v, %v), embedded (%v, %v)", thr68, area68, d.Thr68, d.Area68)
	}
	if float32(thr90) != d.Thr90 || float32(area90) != d.Area90 {
		t.Errorf("90%% contour: recomputed (%v, %v), embedded (%v, %v)", thr90, area90, d.Thr90, d.Area90)
	}
	if d.Area68 > d.Area90 {
		t.Errorf("68%% area %v exceeds 90%% area %v", d.Area68, d.Area90)
	}
}

func TestTruthInsideCredibleRegion(t *testing.T) {
	m, s := buildTestMap(t, Options{})
	if pd := geom.Deg(geom.AngleBetween(m.Peak(), s)); pd > 6 {
		t.Errorf("peak %v° from the source", pd)
	}
	if !m.Contains(s, 0.90) {
		t.Error("tempered 90% region misses the source")
	}
	if !m.Contains(m.Peak(), 0.68) {
		t.Error("peak itself outside the 68% region")
	}
	if a := m.CredibleAreaDeg2(0.90); a != float64(m.Area90) {
		// CredibleAreaDeg2 recomputes from quantized data and must agree
		// with the embedded header at float32 precision.
		if float32(a) != m.Area90 {
			t.Errorf("CredibleAreaDeg2(0.90) = %v, header %v", a, m.Area90)
		}
	}
}

func TestRefinementCoversPeak(t *testing.T) {
	m, _ := buildTestMap(t, Options{})
	if len(m.Tiles) == 0 {
		t.Fatal("no refined tiles on a concentrated posterior")
	}
	if _, ok := m.fineValue(m.fine.Find(m.Peak())); !ok {
		t.Error("peak direction not covered by a fine tile")
	}
	// Fine pixels at the mode sharpen the resolution: the fine grid has
	// RefineFactor² smaller pixels.
	if m.NumFine() == 0 {
		t.Fatal("tiles carry no fine values")
	}
}

func TestTemperatureOneIsStatisticalMap(t *testing.T) {
	m1, _ := buildTestMap(t, Options{Temperature: 1})
	mT, _ := buildTestMap(t, Options{})
	if m1.Temperature != 1 || mT.Temperature != DefaultTemperature {
		t.Fatalf("temperatures %v, %v", m1.Temperature, mT.Temperature)
	}
	// Tempering at T > 1 widens the credible regions.
	if float64(mT.Area90) <= float64(m1.Area90) {
		t.Errorf("tempered 90%% area %v not wider than statistical %v", mT.Area90, m1.Area90)
	}
}

// TestNegativeTemperaturePanics: there is no physically meaningful T < 0,
// and silently substituting one would hide a miscalibrated configuration.
func TestNegativeTemperaturePanics(t *testing.T) {
	for _, temp := range []float64{-1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("temperature %v did not panic", temp)
				}
			}()
			Build(perPixel(func(geom.Vec) float64 { return 0 }), Options{Temperature: temp})
		}()
	}
}

// TestCredibleRegionsNest property-checks that the density threshold never
// rises as the level grows. Contains(d, p) is LogDensity(d) ≥ the
// threshold, so this is exactly nesting; sky's TestCredibleAreaMonotone
// checks the areas.
func TestCredibleRegionsNest(t *testing.T) {
	cfg := localize.DefaultConfig()
	s := geom.FromSpherical(geom.Rad(40), geom.Rad(-60))
	m := FromRings(&cfg, testRings(s, 50, 0.08, xrand.New(10)), nil, Options{Temperature: 1})
	f := func(a, b uint16) bool {
		// Two levels in [0, 1) with p1 <= p2.
		p1, p2 := float64(a)/(1<<16), float64(b)/(1<<16)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		thr, _ := m.contours(p1, p2)
		return thr[0] >= thr[1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDegenerateFlatSurface(t *testing.T) {
	m := Build(perPixel(func(geom.Vec) float64 { return 0 }), Options{})
	b := m.Encode()
	d, err := Decode(b)
	if err != nil {
		t.Fatalf("flat surface decode: %v", err)
	}
	if !bytes.Equal(d.Encode(), b) {
		t.Fatal("flat surface does not round-trip")
	}
	// Flat posterior: the 90% region covers ~90% of the hemisphere.
	hemi := 2 * math.Pi * deg2PerSr
	if a := float64(m.Area90); a < 0.7*hemi || a > hemi+1 {
		t.Errorf("flat 90%% area %v deg², hemisphere is %v", a, hemi)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	m, _ := buildTestMap(t, Options{})
	good := m.Encode()

	if _, err := Decode(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := Decode(good[:len(good)-5]); err == nil {
		t.Error("truncated payload accepted")
	}
	for _, off := range []int{0, 4, 6, 8, 20, headerSize + 3, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Errorf("corrupt byte at offset %d accepted", off)
		}
	}
	// Trailing garbage with a recomputed (valid) CRC still fails.
	body := append([]byte(nil), good[:len(good)-4]...)
	body = append(body, 0, 0)
	body = binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	if _, err := Decode(body); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestQuantizeDequantize(t *testing.T) {
	const floor = -18.0
	if q := quantize(0, floor, 255); q != 255 {
		t.Errorf("quantize(0) = %d", q)
	}
	if q := quantize(floor-5, floor, 255); q != 0 {
		t.Errorf("below-floor quantize = %d", q)
	}
	if q := quantize(math.NaN(), floor, 255); q != 0 {
		t.Errorf("NaN quantize = %d", q)
	}
	if v := dequantize(255, 255, floor); v != 0 {
		t.Errorf("dequantize(max) = %v", v)
	}
	if v := dequantize(0, 255, floor); v != floor {
		t.Errorf("dequantize(0) = %v", v)
	}
	// Quantization is monotone and bounded within one step of the input.
	prev := -1
	for v := floor; v <= 0; v += 0.01 {
		q := quantize(v, floor, 65535)
		if q < prev {
			t.Fatalf("quantize not monotone at %v", v)
		}
		prev = q
		if got := dequantize(q, 65535, floor); math.Abs(got-v) > -floor/65535 {
			t.Fatalf("dequantize error %v at %v", got-v, v)
		}
	}
}

func TestMixtureSurfaceBuilds(t *testing.T) {
	cfg := localize.DefaultConfig()
	s := geom.FromSpherical(geom.Rad(20), geom.Rad(-30))
	rings := testRings(s, 60, 0.04, xrand.New(3))
	probs := make([]float64, len(rings))
	m := FromRings(&cfg, rings, probs, Options{})
	if pd := geom.Deg(geom.AngleBetween(m.Peak(), s)); pd > 8 {
		t.Errorf("mixture map peak %v° from the source", pd)
	}
	if !bytes.Equal(m.Encode(), mustRedecode(t, m.Encode())) {
		t.Error("mixture map does not round-trip")
	}
}

func mustRedecode(t *testing.T, b []byte) []byte {
	t.Helper()
	d, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	return d.Encode()
}
