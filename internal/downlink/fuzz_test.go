package downlink

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/evio"
)

// FuzzChunkDecode hammers the frame decoder with arbitrary bytes. Frames
// cross the lossy link, so the decoder fronts effectively untrusted input:
// it must never panic, and any frame it accepts must re-encode to the
// exact bytes it decoded from (the canonical-form contract the ground
// resync scan relies on).
func FuzzChunkDecode(f *testing.F) {
	f.Add((&Chunk{Class: ClassAlert, MsgID: 1, Index: 0, Total: 2, Seq: 9,
		Payload: []byte("seed payload")}).EncodeFrame())
	f.Add((&Chunk{Class: ClassJournal, Total: 1}).EncodeFrame())
	f.Add((&Ack{Cum: 7, Sack: []uint32{9}, Nak: []uint32{7, 8}}).EncodeFrame())
	f.Add((&Ack{}).EncodeFrame())
	f.Add([]byte("ADLK"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		frame, n, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("decoded length %d out of range for %d input bytes", n, len(data))
		}
		var enc []byte
		switch {
		case frame.Chunk != nil:
			enc = frame.Chunk.EncodeFrame()
		case frame.Ack != nil:
			enc = frame.Ack.EncodeFrame()
		default:
			t.Fatal("decoded frame is neither chunk nor ack")
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("accepted frame is not canonical:\n%x\nvs\n%x", data[:n], enc)
		}
		// The resync scanner must agree with the direct decoder.
		frames, _ := ScanFrames(data[:n], func(*Frame) {})
		if frames != 1 {
			t.Fatalf("ScanFrames found %d frames in one valid frame", frames)
		}
	})
}

// FuzzDeltaEvio hammers the batch codec decoder. Backfill payloads arrive
// through the same lossy link, so DecodeRecords must never panic on
// hostile bytes, and anything it accepts must survive a re-encode/decode
// round trip bitwise (the journal-reproduction contract).
func FuzzDeltaEvio(f *testing.F) {
	for _, opts := range []CodecOptions{{}, {NoFlate: true}} {
		enc, err := EncodeRecords([][]byte{[]byte("raw record"), {}, []byte{0xDE, 0xAD}}, opts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add([]byte("ADLC"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeRecords(data)
		if err != nil {
			return
		}
		for _, opts := range []CodecOptions{{}, {NoFlate: true}} {
			enc, err := EncodeRecords(records, opts)
			if err != nil {
				t.Fatalf("accepted records do not re-encode: %v", err)
			}
			back, err := DecodeRecords(enc)
			if err != nil {
				t.Fatalf("re-encoded batch does not decode: %v", err)
			}
			if len(back) != len(records) {
				t.Fatalf("round trip changed record count: %d vs %d", len(back), len(records))
			}
			for i := range records {
				if !bytes.Equal(back[i], records[i]) {
					t.Fatalf("record %d not bitwise-stable through round trip", i)
				}
			}
		}
	})
}

// recordSep splits a FuzzCodecMatchesReference input into the record list
// its encode half compresses.
var recordSep = []byte("|REC|")

// codecFuzzRecords is the record corpus of FuzzCodecMatchesReference:
// simulated journal records and copies of one changed in every way that
// keeps it decodable but not canonical, or not decodable at all.
func codecFuzzRecords(f *testing.F) [][]byte {
	valid := quietRecords(f, 21, 0.01)
	var rec []byte // the first record with a hit
	for _, r := range valid {
		if len(r) > evio.HeaderSize+evio.EventHeaderSize {
			rec = r
			break
		}
	}
	if rec == nil {
		f.Fatal("no simulated record has a hit")
	}
	hit := evio.HeaderSize + evio.EventHeaderSize
	set := func(off int, b ...byte) []byte {
		out := append([]byte(nil), rec...)
		copy(out[off:], b)
		return out
	}
	sNaN := []byte{0x01, 0x00, 0x80, 0x7f}
	return append(valid[:min(len(valid), 12)],
		set(evio.HeaderSize+evFlags, 2),         // flag bit above the first
		set(evio.HeaderSize+evFlags, 3),         // both flag bits
		set(hit+hitLayer+1, 1),                  // nonzero hit padding
		set(6, 0, 1),                            // nonzero reserved header bytes
		set(evio.HeaderSize+evTrueSrc, sNaN...), // signaling NaN event field
		set(hit+hitE, sNaN...),                  // signaling NaN hit energy
		set(hit+hitSigmaE, sNaN...),             // signaling NaN SigmaE
		set(hit, 0x00, 0x00, 0xc0, 0x7f),        // quiet NaN position
		append(append([]byte(nil), rec...), 0),  // trailing byte
		rec[:len(rec)-1],                        // truncated hit
		rec[:evio.HeaderSize+3],                 // truncated event header
		rec[:evio.HeaderSize],                   // header only: canonical, no events
		[]byte{},                                // empty record
		[]byte("not evio"),                      // garbage
	)
}

// hostileBatch builds an ADLC batch around a hand-written body holding one
// delta record of one event with one hit, so the decoder meets column
// values an encoder never writes.
func hostileBatch(src, flags byte, evBits [numEventFields]uint32, hitBits [numF32Fields - numEventFields]uint32, resid, layer uint64) []byte {
	body := []byte{2, 0, 1} // dir: one delta record of one event
	body = append(body, 1, 1)
	body = append(body, src, flags)
	body = append(body, 1, 2) // arrival
	for _, bits := range append(evBits[:], hitBits[:]...) {
		body = append(body, byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24))
	}
	sig := binary.AppendUvarint(nil, resid)
	body = append(binary.AppendUvarint(body, uint64(len(sig))), sig...)
	ly := binary.AppendUvarint(nil, layer)
	body = append(binary.AppendUvarint(body, uint64(len(ly))), ly...)
	return append([]byte("ADLC\x02\x00\x00\x00\x01"), body...)
}

// FuzzCodecMatchesReference compares the byte-level codec with the
// event-based one it replaced (reference_test.go). The input is decoded as
// a batch by both, which must accept and reject alike and give the same
// records; and it is split at recordSep into a record list both encode,
// which must give the same bytes with and without deflate. Run with
// `go test -fuzz=FuzzCodecMatchesReference ./internal/downlink`.
func FuzzCodecMatchesReference(f *testing.F) {
	records := codecFuzzRecords(f)
	f.Add(bytes.Join(records, recordSep))
	for _, r := range records {
		f.Add(r)
		for _, opts := range []CodecOptions{{}, {NoFlate: true}} {
			enc, err := EncodeRecords([][]byte{r}, opts)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(enc)
		}
	}
	enc, err := EncodeRecords(records, CodecOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	f.Add(enc[:len(enc)-2]) // truncated deflate stream
	one := [numF32Fields - numEventFields]uint32{0x3f800000, 0, 0, 0x3f000000, 0, 0, 0}
	sNaN := [numF32Fields - numEventFields]uint32{0x7f800001, 0xff800001, 0x7fa00000, 0x7f800001, 0x7f800002, 0, 0}
	f.Add(hostileBatch(0, 0, [numEventFields]uint32{}, one, 0, 0))
	f.Add(hostileBatch(9, 3, [numEventFields]uint32{0x7f800001, 0x7fc00001, 0xffbfffff, 0x7f800000}, sNaN, 0x7f800001, 7))
	f.Add(hostileBatch(0, 0, [numEventFields]uint32{}, one, math.MaxUint32+1, 0)) // residual out of range
	f.Add(hostileBatch(0, 0, [numEventFields]uint32{}, one, 0, 256))              // layer out of range
	f.Add(append(hostileBatch(0, 0, [numEventFields]uint32{}, one, 0, 0), 0))     // trailing body byte

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeRecords(data)
		want, rerr := refDecodeRecords(data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("DecodeRecords err %v, reference err %v", err, rerr)
		}
		if len(got) != len(want) {
			t.Fatalf("DecodeRecords gave %d records, reference %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d: DecodeRecords %x, reference %x", i, got[i], want[i])
			}
			if cap(got[i]) != len(got[i]) {
				t.Fatalf("record %d: capacity %d beyond its %d bytes", i, cap(got[i]), len(got[i]))
			}
		}
		batch := bytes.Split(data, recordSep)
		for _, opts := range []CodecOptions{{}, {NoFlate: true}} {
			enc, err := EncodeRecords(batch, opts)
			ref, rerr := refEncodeRecords(batch, opts)
			if err != nil || rerr != nil {
				t.Fatalf("encode errors: %v, reference %v", err, rerr)
			}
			if !bytes.Equal(enc, ref) {
				t.Fatalf("opts %+v: EncodeRecords differs from the reference", opts)
			}
		}
	})
}
