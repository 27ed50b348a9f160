package evio

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/detector"
	"repro/internal/xrand"
)

// roundTrips is the definition Canonical implements from the bytes alone.
func roundTrips(rec []byte) bool {
	events, err := Unmarshal(rec)
	if err != nil {
		return false
	}
	again, err := Marshal(events)
	return err == nil && bytes.Equal(again, rec)
}

// TestCanonicalMatchesRoundTrip sets every byte of the golden stream in
// turn to values that hit each rule — flag bits above the first, nonzero
// padding and reserved bytes, a count that overruns the stream, the
// exponent and quiet bit of every float32 — and compares Canonical with
// the Unmarshal/Marshal round trip it stands for, along with the stream
// cut at every length and a trailing byte.
func TestCanonicalMatchesRoundTrip(t *testing.T) {
	golden, err := hex.DecodeString(goldenHex)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, rec []byte) {
		t.Helper()
		events, hits, ok := Canonical(rec)
		if want := roundTrips(rec); ok != want {
			t.Fatalf("%s: Canonical %v, round trip %v", what, ok, want)
		}
		if !ok {
			return
		}
		decoded, _ := Unmarshal(rec)
		n := 0
		for _, ev := range decoded {
			n += len(ev.Hits)
		}
		if events != len(decoded) || hits != n {
			t.Fatalf("%s: Canonical counts %d events %d hits, Unmarshal %d and %d", what, events, hits, len(decoded), n)
		}
	}
	check("golden", golden)
	for i := range golden {
		for _, v := range []byte{0x00, 0x01, 0x02, 0x3f, 0x40, 0x7f, 0x80, 0xa0, 0xff} {
			rec := append([]byte(nil), golden...)
			rec[i] = v
			check("byte set", rec)
		}
	}
	// A signaling and a quiet NaN in every 4-byte word.
	for i := 0; i+4 <= len(golden); i++ {
		for _, bits := range []uint32{0x7f800001, 0xffa00000, 0x7fc00001, 0x7f800000} {
			rec := append([]byte(nil), golden...)
			binary.LittleEndian.PutUint32(rec[i:], bits)
			check("NaN word", rec)
		}
	}
	for n := 0; n < len(golden); n++ {
		check("cut", golden[:n])
	}
	check("trailing byte", append(append([]byte(nil), golden...), 0))
}

// TestF32RoundTrip compares F32RoundTrip with the conversions Unmarshal
// and Marshal perform, on a record holding each pattern as a hit energy.
func TestF32RoundTrip(t *testing.T) {
	for _, bits := range []uint32{0, 0x80000000, 1, 0x3f800000, 0x7f7fffff, 0x7f800000, 0xff800000,
		0x7f800001, 0x7fbfffff, 0xff800001, 0x7fc00000, 0x7fc00001, 0xffffffff} {
		rec, err := Marshal([]*detector.Event{{Hits: make([]detector.Hit, 1)}})
		if err != nil {
			t.Fatal(err)
		}
		e := HeaderSize + EventHeaderSize + 12
		binary.LittleEndian.PutUint32(rec[e:], bits)
		events, err := Unmarshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := F32RoundTrip(bits), binary.LittleEndian.Uint32(again[e:]); got != want {
			t.Errorf("F32RoundTrip(%#08x) = %#08x, the codec gives %#08x", bits, got, want)
		}
	}
}

// TestUnmarshalSlab decodes many single-event records, an empty stream, a
// header-only stream and a multi-event stream into one slab and compares
// it with Unmarshal, stream by stream.
func TestUnmarshalSlab(t *testing.T) {
	rng := xrand.New(11)
	var streams [][]byte
	var want []*detector.Event
	add := func(events []*detector.Event) {
		rec, err := Marshal(events)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Unmarshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, rec)
		want = append(want, dec...)
	}
	for _, ev := range randomBatch(rng, 40) {
		add([]*detector.Event{ev})
	}
	add(nil)
	add(goldenEvents())
	streams = append(streams, nil)
	got, err := UnmarshalSlab(streams)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("slab holds %d events, Unmarshal gives %d", len(got), len(want))
	}
	for i := range want {
		if !sameAsStored(&got[i], want[i]) {
			t.Fatalf("event %d differs from Unmarshal's", i)
		}
		if cap(got[i].Hits) != len(got[i].Hits) {
			t.Fatalf("event %d: hits capacity %d beyond its %d hits", i, cap(got[i].Hits), len(got[i].Hits))
		}
	}
	// Any stream Unmarshal rejects fails the whole slab.
	bad := append(append([][]byte(nil), streams...), streams[0][:len(streams[0])-1])
	if _, err := UnmarshalSlab(bad); err == nil {
		t.Error("slab accepted a truncated stream")
	}
}

// TestAppendMarshal appends to a non-empty buffer and requires Marshal's
// bytes after the prefix, and an untouched buffer on error.
func TestAppendMarshal(t *testing.T) {
	events := goldenEvents()
	want, err := Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := AppendMarshal(prefix, events)
	if err != nil || !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("AppendMarshal = %x (%v), want prefix then %x", got, err, want)
	}
	huge := &detector.Event{Hits: make([]detector.Hit, math.MaxUint16+1)}
	if got, err := AppendMarshal(prefix, []*detector.Event{events[0], huge}); err == nil || !bytes.Equal(got, prefix) {
		t.Errorf("AppendMarshal over the hit limit = %q, %v; want the prefix and an error", got, err)
	}
}
