package skymap

import (
	"bytes"
	"testing"

	"repro/internal/geom"
)

// FuzzSkymapDecode pins the codec's canonical-form contract: Decode either
// rejects the input or accepts a payload whose re-encoding is byte-for-byte
// the input. Any accept/re-encode divergence would break the bitwise
// determinism the serving cache and journal replay rely on.
func FuzzSkymapDecode(f *testing.F) {
	m := Build(perPixel(func(d geom.Vec) float64 { return -50 * geom.AngleBetween(d, geom.Vec{Z: 1}) }), Options{CoarseBands: 4, RefineFactor: 2, MaxTiles: 4})
	f.Add(m.Encode())
	flat := Build(perPixel(func(geom.Vec) float64 { return 0 }), Options{CoarseBands: 2, RefineFactor: 1, MaxTiles: 1})
	f.Add(flat.Encode())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		re := d.Encode()
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical: %d bytes in, %d bytes re-encoded", len(data), len(re))
		}
		// Accepted maps must be safe to interrogate.
		if a := d.CredibleAreaDeg2(0.9); a < 0 {
			t.Fatalf("negative credible area %v", a)
		}
		d.LogDensity(geom.Vec{Z: 1})
	})
}
