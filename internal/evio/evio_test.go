package evio

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/detector"
	"repro/internal/geom"
	"repro/internal/xrand"
)

func TestRoundTripSimulatedEvents(t *testing.T) {
	cfg := detector.DefaultConfig()
	rng := xrand.New(1)
	events := detector.SimulateBurst(&cfg, detector.Burst{Fluence: 0.3, PolarDeg: 25, AzimuthDeg: 90}, rng)
	if len(events) == 0 {
		t.Fatal("no events to serialize")
	}

	var buf bytes.Buffer
	if err := WriteAll(&buf, events); err != nil {
		t.Fatal(err)
	}
	// The stream is many times the Writer's buffer, so records are encoded
	// into reused buffer space: every byte, padding included, must still
	// match Marshal's freshly allocated encoding.
	blob, err := Marshal(events)
	if err != nil || !bytes.Equal(buf.Bytes(), blob) {
		t.Fatalf("WriteAll and Marshal disagree on %d bytes (%v)", buf.Len(), err)
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("%d events back, want %d", len(got), len(events))
	}
	for i, ev := range events {
		g := got[i]
		if len(g.Hits) != len(ev.Hits) || g.Source != ev.Source || g.FullyAbsorbed != ev.FullyAbsorbed {
			t.Fatalf("event %d metadata mismatch", i)
		}
		if g.ArrivalTime != ev.ArrivalTime {
			t.Fatalf("event %d arrival %v vs %v (float64 must be exact)", i, g.ArrivalTime, ev.ArrivalTime)
		}
		if math.Abs(g.TrueEnergy-ev.TrueEnergy) > 1e-6*ev.TrueEnergy {
			t.Fatalf("event %d energy %v vs %v", i, g.TrueEnergy, ev.TrueEnergy)
		}
		for j := range ev.Hits {
			a, b := ev.Hits[j], g.Hits[j]
			if a.Layer != b.Layer {
				t.Fatalf("hit layer mismatch")
			}
			if math.Abs(a.Pos.X-b.Pos.X) > 1e-5 || math.Abs(a.E-b.E) > 1e-6 {
				t.Fatalf("hit values drifted beyond float32 precision")
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		n := int(nRaw % 5)
		events := make([]*detector.Event, 0, n)
		for i := 0; i < n; i++ {
			nh := rng.IntN(4) + 1
			ev := &detector.Event{
				Source:        detector.SourceKind(rng.IntN(2)),
				TrueEnergy:    rng.Uniform(0.03, 30),
				ArrivalTime:   rng.Float64(),
				FullyAbsorbed: rng.Bool(0.5),
			}
			for h := 0; h < nh; h++ {
				ev.Hits = append(ev.Hits, detector.Hit{
					Pos:    vec3(rng.Uniform(-20, 20), rng.Uniform(-20, 20), rng.Uniform(-32, 0)),
					E:      rng.Uniform(0.02, 5),
					SigmaX: 0.17, SigmaY: 0.17, SigmaZ: 0.43,
					SigmaE: rng.Uniform(0.001, 0.2),
					Layer:  rng.IntN(4),
				})
			}
			events = append(events, ev)
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, events); err != nil {
			return false
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil || len(got) != len(events) {
			return false
		}
		for i := range events {
			if len(got[i].Hits) != len(events[i].Hits) {
				return false
			}
			if got[i].ArrivalTime != events[i].ArrivalTime {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// randomBatch builds a randomized event batch whose field values are exact
// in the on-disk format (float32 positions/energies, float64 arrival), so
// the writer round trip must reproduce them bit-for-bit.
func randomBatch(rng *xrand.RNG, n int) []*detector.Event {
	events := make([]*detector.Event, 0, n)
	for i := 0; i < n; i++ {
		ev := &detector.Event{
			Source:        detector.SourceKind(rng.IntN(2)),
			TrueSource:    vec3(float64(float32(rng.Uniform(-1, 1))), float64(float32(rng.Uniform(-1, 1))), float64(float32(rng.Uniform(0, 1)))),
			TrueEnergy:    float64(float32(rng.Uniform(0.03, 30))),
			ArrivalTime:   rng.Float64(),
			FullyAbsorbed: rng.Bool(0.5),
		}
		for h := rng.IntN(6); h > 0; h-- {
			ev.Hits = append(ev.Hits, detector.Hit{
				Pos:    vec3(float64(float32(rng.Uniform(-20, 20))), float64(float32(rng.Uniform(-20, 20))), float64(float32(rng.Uniform(-32, 0)))),
				E:      float64(float32(rng.Uniform(0.02, 5))),
				SigmaX: 0.125, SigmaY: 0.25, SigmaZ: 0.5,
				SigmaE: float64(float32(rng.Uniform(0.001, 0.2))),
				Layer:  rng.IntN(4),
			})
		}
		events = append(events, ev)
	}
	return events
}

// TestWriterRoundTripProperty is the writer-side complement of FuzzReader:
// for randomized event batches, encode→decode must return exactly the
// values written (all fields representable in the format), and re-encoding
// the decoded batch must reproduce the original stream byte for byte.
func TestWriterRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := xrand.New(seed)
		events := randomBatch(rng, int(nRaw%8))

		blob, err := Marshal(events)
		if err != nil {
			t.Logf("Marshal: %v", err)
			return false
		}
		got, err := Unmarshal(blob)
		if err != nil || len(got) != len(events) {
			t.Logf("Unmarshal: %d events, err %v", len(got), err)
			return false
		}
		for i, ev := range events {
			g := got[i]
			if g.Source != ev.Source || g.FullyAbsorbed != ev.FullyAbsorbed ||
				g.ArrivalTime != ev.ArrivalTime || g.TrueEnergy != ev.TrueEnergy ||
				g.TrueSource != ev.TrueSource || len(g.Hits) != len(ev.Hits) {
				t.Logf("event %d header mismatch: %+v vs %+v", i, g, ev)
				return false
			}
			for j := range ev.Hits {
				a, b := ev.Hits[j], g.Hits[j]
				if a != b {
					t.Logf("event %d hit %d mismatch: %+v vs %+v", i, j, a, b)
					return false
				}
			}
		}
		// Byte-exactness: the decoded batch re-encodes to the same stream.
		again, err := Marshal(got)
		if err != nil || !bytes.Equal(again, blob) {
			t.Logf("re-encode differs (err %v)", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 8 {
		t.Errorf("empty stream is %d bytes, want 8 (header only)", buf.Len())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil || len(got) != 0 {
		t.Errorf("empty stream read: %v events, err %v", len(got), err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE\x01\x00\x00\x00"))).ReadAll(); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("ADEV\x63\x00\x00\x00"))).ReadAll(); err == nil {
		t.Error("future version accepted")
	}
	// Truncated mid-event: an error, not a silent EOF.
	var buf bytes.Buffer
	ev := &detector.Event{Hits: []detector.Hit{{E: 1}}}
	if err := WriteAll(&buf, []*detector.Event{ev}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	_, err := NewReader(bytes.NewReader(trunc)).ReadAll()
	if err == nil || errors.Is(err, io.EOF) {
		t.Errorf("truncated stream error = %v, want a framing error", err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEvent(&detector.Event{}); err == nil {
		t.Error("write after close succeeded")
	}
	if err := w.Close(); err != nil {
		t.Error("double close errored")
	}
}

// TestTooManyHitsRejected: the u16 hit count cannot describe 65536 hits,
// so both encoders refuse the event instead of writing a corrupt stream.
func TestTooManyHitsRejected(t *testing.T) {
	events := []*detector.Event{{Hits: make([]detector.Hit, math.MaxUint16+1)}}
	if _, err := Marshal(events); err == nil {
		t.Error("Marshal accepted an event with 65536 hits")
	}
	if err := WriteAll(io.Discard, events); err == nil {
		t.Error("WriteAll accepted an event with 65536 hits")
	}
}

func vec3(x, y, z float64) (v struct{ X, Y, Z float64 }) {
	v.X, v.Y, v.Z = x, y, z
	return v
}

// readAll decodes b through the streaming Reader.
func readAll(b []byte) ([]*detector.Event, error) {
	return NewReader(bytes.NewReader(b)).ReadAll()
}

// decoders are the two decode entry points; they must agree on every
// input.
var decoders = map[string]func([]byte) ([]*detector.Event, error){
	"Unmarshal": Unmarshal,
	"ReadAll":   readAll,
}

// goldenEvents covers the corners of the record layout: both flag values,
// a non-zero source label, layer 255, signed zeros, float32 subnormals, a
// NaN, an infinity, an event without hits and an arrival time that needs
// all 64 bits.
func goldenEvents() []*detector.Event {
	negZero := math.Copysign(0, -1)
	return []*detector.Event{
		{
			Source:        detector.SourceBackground,
			FullyAbsorbed: true,
			TrueSource:    geom.Vec{X: 0.6, Y: -0.8, Z: negZero},
			TrueEnergy:    1.25,
			ArrivalTime:   1718035200.123456789,
			Hits: []detector.Hit{
				{Pos: geom.Vec{X: -12.5, Y: 3.75, Z: -31.25}, E: 0.511, SigmaX: 0.125, SigmaY: 0.125, SigmaZ: 0.43, SigmaE: 0.02, Layer: 3},
				{Pos: geom.Vec{X: negZero, Y: 0, Z: math.SmallestNonzeroFloat32}, E: math.NaN(), SigmaX: math.Inf(1), SigmaY: 1e-40, SigmaZ: -0.5, SigmaE: 7, Layer: 255},
			},
		},
		{Source: detector.SourceGRB, TrueEnergy: 30, ArrivalTime: 0.5},
		{
			Source:      detector.SourceGRB,
			ArrivalTime: 1718035200.5,
			Hits:        []detector.Hit{{Pos: geom.Vec{X: 1, Y: 2, Z: 3}, E: 4, SigmaE: 0.1}},
		},
	}
}

// goldenHex is goldenEvents as encoding/binary's reflection-based writer
// encodes the format's structs, independently of the record codec: the
// wire bytes every journal, downlink batch and evio file depends on.
const goldenHex = "4144455601000000020001019a99193fcdcc4cbf000000800000a03fb7e607c0c899d941" +
	"000048c1000070400000fac1e5d0023f0000003e0000003ef628dc3e0ad7a33c03000000" +
	"0000008000000000010000000000c07f0000807fc2160100000000bf0000e040ff000000" +
	"000000000000000000000000000000000000f041000000000000e03f0100000000000000" +
	"000000000000000000000000000020c0c899d9410000803f000000400000404000008040" +
	"000000000000000000000000cdcccc3d00000000"

// stored is the bit pattern of the value the format gives back for v.
func stored(v float64) uint64 { return math.Float64bits(float64(float32(v))) }

// sameAsStored reports whether got is what the format stores for want:
// every float32 field equal to want's after float32 rounding, bit for bit,
// so signed zeros and NaNs count, and the arrival time exactly.
func sameAsStored(got, want *detector.Event) bool {
	if got.Source != want.Source || got.FullyAbsorbed != want.FullyAbsorbed ||
		math.Float64bits(got.ArrivalTime) != math.Float64bits(want.ArrivalTime) ||
		len(got.Hits) != len(want.Hits) {
		return false
	}
	g := []float64{got.TrueSource.X, got.TrueSource.Y, got.TrueSource.Z, got.TrueEnergy}
	w := []float64{want.TrueSource.X, want.TrueSource.Y, want.TrueSource.Z, want.TrueEnergy}
	for i := range want.Hits {
		gh, wh := &got.Hits[i], &want.Hits[i]
		if gh.Layer != wh.Layer {
			return false
		}
		g = append(g, gh.Pos.X, gh.Pos.Y, gh.Pos.Z, gh.E, gh.SigmaX, gh.SigmaY, gh.SigmaZ, gh.SigmaE)
		w = append(w, wh.Pos.X, wh.Pos.Y, wh.Pos.Z, wh.E, wh.SigmaX, wh.SigmaY, wh.SigmaZ, wh.SigmaE)
	}
	for i := range w {
		if math.Float64bits(g[i]) != stored(w[i]) {
			return false
		}
	}
	return true
}

// TestGoldenWireFormat pins the format's bytes: a rewrite that changed the
// layout on both the encode and the decode side would still pass every
// round-trip test, but not this one.
func TestGoldenWireFormat(t *testing.T) {
	want, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Marshal(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, want) {
		t.Errorf("Marshal bytes differ from golden:\n got %x\nwant %x", blob, want)
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, goldenEvents()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteAll bytes differ from golden:\n got %x\nwant %x", buf.Bytes(), want)
	}
	for name, decode := range decoders {
		got, err := decode(want)
		if err != nil {
			t.Fatalf("%s golden: %v", name, err)
		}
		events := goldenEvents()
		if len(got) != len(events) {
			t.Fatalf("%s golden: %d events, want %d", name, len(got), len(events))
		}
		for i := range events {
			if !sameAsStored(got[i], events[i]) {
				t.Errorf("%s golden event %d: %+v, want %+v", name, i, got[i], events[i])
			}
		}
	}
}

// TestTruncationInsideEventIsAnError cuts a stream at every byte. A cut
// before the first byte or on an event boundary is a shorter valid stream;
// a cut anywhere else — inside the stream header, an event header, a hit,
// or exactly between two hits of one event — is io.ErrUnexpectedEOF, never
// a silent end of stream.
func TestTruncationInsideEventIsAnError(t *testing.T) {
	events := goldenEvents()
	full, err := Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	ends := map[int]int{0: 0, HeaderSize: 0} // cut → events before it
	off := HeaderSize
	for i, ev := range events {
		off += recordSize(ev)
		ends[off] = i + 1
	}
	for cut := 0; cut < len(full); cut++ {
		for name, decode := range decoders {
			got, err := decode(full[:cut])
			if n, clean := ends[cut]; clean {
				if err != nil || len(got) != n {
					t.Errorf("%s cut at %d (event boundary): %d events, err %v; want %d, nil", name, cut, len(got), err, n)
				}
				continue
			}
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s cut at %d: err %v, want io.ErrUnexpectedEOF", name, cut, err)
			}
		}
	}
}

// TestHostileHitCountAllocatesByBytesPresent decodes an event header that
// claims 65535 hits and carries none. Both decoders must reject it while
// allocating in proportion to the 36 bytes present, not the 4.7 MB the
// count asks for.
func TestHostileHitCountAllocatesByBytesPresent(t *testing.T) {
	data := AppendHeader(nil)
	hdr := make([]byte, EventHeaderSize)
	binary.LittleEndian.PutUint16(hdr, math.MaxUint16)
	data = append(data, hdr...)
	for name, decode := range decoders {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := decode(data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 0 {
			t.Errorf("%s: %d events, err %v; want io.ErrUnexpectedEOF", name, len(got), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Errorf("%s allocated %d bytes for a %d-byte input", name, alloc, len(data))
		}
	}
}

var (
	sinkBlob   []byte
	sinkEvents []*detector.Event
)

// BenchmarkMarshalEvent encodes one two-hit event, the flight journal's
// per-event record.
func BenchmarkMarshalEvent(b *testing.B) {
	events := fuzzSeedEvents()[:1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blob, err := Marshal(events)
		if err != nil {
			b.Fatal(err)
		}
		sinkBlob = blob
	}
}

// BenchmarkUnmarshalEvent decodes one two-hit event record.
func BenchmarkUnmarshalEvent(b *testing.B) {
	blob, err := Marshal(fuzzSeedEvents()[:1])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		events, err := Unmarshal(blob)
		if err != nil {
			b.Fatal(err)
		}
		sinkEvents = events
	}
}
