package evio

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/detector"
	"repro/internal/geom"
)

// fuzzSeedEvents builds a small valid stream for the seed corpus.
func fuzzSeedEvents() []*detector.Event {
	return []*detector.Event{
		{
			Source:      detector.SourceGRB,
			TrueSource:  geom.Vec{Z: 1},
			TrueEnergy:  1.25,
			ArrivalTime: 0.5,
			Hits: []detector.Hit{
				{Pos: geom.Vec{X: 1, Y: 2, Z: 3}, E: 0.511, SigmaX: 0.1, SigmaY: 0.1, SigmaZ: 0.2, SigmaE: 0.05, Layer: 0},
				{Pos: geom.Vec{X: -1, Y: 0, Z: -9}, E: 0.7, SigmaX: 0.1, SigmaY: 0.1, SigmaZ: 0.2, SigmaE: 0.05, Layer: 3},
			},
		},
		{Source: detector.SourceBackground, FullyAbsorbed: true},
	}
}

// fuzzSeeds adds the seed corpus both fuzz targets start from.
func fuzzSeeds(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteAll(&valid, fuzzSeedEvents()); err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := NewWriter(&empty).Close(); err != nil {
		f.Fatal(err)
	}

	f.Add(valid.Bytes())                        // well-formed stream
	f.Add(empty.Bytes())                        // header only
	f.Add([]byte{})                             // no bytes at all
	f.Add(valid.Bytes()[:6])                    // truncated mid-header
	f.Add(valid.Bytes()[:len(valid.Bytes())-3]) // truncated mid-hit
	f.Add([]byte("XDEV\x01\x00\x00\x00"))       // bad magic
	f.Add([]byte("ADEV\x63\x00\x00\x00"))       // unsupported version
	// Header claiming 0xFFFF hits with no hit payload.
	f.Add(append(append([]byte{}, empty.Bytes()...),
		0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
	// Multi-segment stream: two complete streams back to back, as a naive
	// concatenation of journal segments would produce. The second header's
	// magic lands where an event header is expected; the reader must
	// reject it without panicking rather than resynchronize silently.
	f.Add(append(append([]byte{}, valid.Bytes()...), valid.Bytes()...))
	// Multi-segment with an empty first segment (header-only prefix).
	f.Add(append(append([]byte{}, empty.Bytes()...), valid.Bytes()...))
	// Truncated exactly between the two hits of the first event.
	f.Add(valid.Bytes()[:HeaderSize+EventHeaderSize+HitSize])
	// Decodable but not canonical: a flag bit above the first, nonzero hit
	// padding and reserved header bytes, a signaling NaN hit energy.
	for _, mut := range []struct {
		off int
		v   []byte
	}{
		{HeaderSize + 3, []byte{0x03}},
		{HeaderSize + EventHeaderSize + 33, []byte{0x01}},
		{6, []byte{0x01, 0x00}},
		{HeaderSize + EventHeaderSize + 12, []byte{0x01, 0x00, 0x80, 0x7f}},
	} {
		b := append([]byte(nil), valid.Bytes()...)
		copy(b[mut.off:], mut.v)
		f.Add(b)
	}
}

// FuzzReader feeds arbitrary bytes to the stream reader — the same path
// adaptserve exposes to untrusted network clients. The reader must never
// panic: truncated, corrupt, or hostile streams return errors. Run with
// `go test -fuzz=FuzzReader ./internal/evio`.
func FuzzReader(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil {
			if errors.Is(err, io.EOF) {
				t.Fatalf("ReadAll leaked raw io.EOF instead of nil or a wrapped error")
			}
			return
		}
		// Property: anything the reader accepts must round-trip — encode
		// the decoded events and decode again to an equal stream.
		var buf bytes.Buffer
		if werr := WriteAll(&buf, events); werr != nil {
			t.Fatalf("re-encode of accepted stream failed: %v", werr)
		}
		again, rerr := NewReader(bytes.NewReader(buf.Bytes())).ReadAll()
		if rerr != nil {
			t.Fatalf("re-decode of re-encoded stream failed: %v", rerr)
		}
		if len(again) != len(events) {
			t.Fatalf("round trip changed event count: %d → %d", len(events), len(again))
		}
		for i := range events {
			if len(again[i].Hits) != len(events[i].Hits) {
				t.Fatalf("event %d: round trip changed hit count: %d → %d",
					i, len(events[i].Hits), len(again[i].Hits))
			}
		}
	})
}

// FuzzUnmarshal checks that the in-memory decoder and the stream reader
// are one codec: on every input they both accept or both reject, and
// return the same events. On accepted input the two encoders must agree
// as well, UnmarshalSlab must decode the same events, and Canonical must
// say whether Marshal gives the input back. Run with
// `go test -fuzz=FuzzUnmarshal ./internal/evio`.
func FuzzUnmarshal(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Unmarshal(data)
		want, rerr := readAll(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("Unmarshal err %v, ReadAll err %v", err, rerr)
		}
		a, aerr := Marshal(got)
		b, berr := Marshal(want)
		if aerr != nil || berr != nil || len(got) != len(want) || !bytes.Equal(a, b) {
			t.Fatalf("Unmarshal gave %d events, ReadAll %d; encodings differ (%v, %v)", len(got), len(want), aerr, berr)
		}
		slab, serr := UnmarshalSlab([][]byte{data})
		if (serr == nil) != (err == nil) {
			t.Fatalf("UnmarshalSlab err %v, Unmarshal err %v", serr, err)
		}
		if _, _, ok := Canonical(data); ok != (err == nil && bytes.Equal(a, data)) {
			t.Fatalf("Canonical %v, but Marshal(Unmarshal(data)) == data is %v", ok, !ok)
		}
		if err != nil {
			return
		}
		for i := range slab {
			if !sameAsStored(&slab[i], got[i]) {
				t.Fatalf("UnmarshalSlab event %d differs from Unmarshal's", i)
			}
		}
		var buf bytes.Buffer
		if werr := WriteAll(&buf, got); werr != nil || !bytes.Equal(buf.Bytes(), a) {
			t.Fatalf("WriteAll and Marshal disagree on an accepted stream (%v)", werr)
		}
	})
}
