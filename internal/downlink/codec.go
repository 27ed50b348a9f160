package downlink

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/geom"
)

// Delta-compressed evio codec for journal-segment backfill.
//
// The flight journal stores one canonical evio blob per admitted event
// (internal/stream), so raw backfill pays the 8-byte evio stream header,
// full float32 hit fields, and an 8-byte float64 arrival time for every
// record. This codec re-encodes a batch of journal records into one
// payload that exploits the structure the detector response imposes:
//
//   - per-hit sigmas are constants of the detector geometry, x/y positions
//     are quantized to the fiber pitch, and SigmaE is (modulo float32
//     rounding) the detector resolution model evaluated at the measured
//     energy — so XOR against the previous value (or the model's
//     prediction) leaves mostly zero bytes;
//   - arrival times are monotone, so consecutive float64 bit patterns are
//     close: the difference of the raw bit patterns is zigzag-varint
//     encoded (bit-exact, unlike a float subtraction);
//   - fields are stored columnar, each float32 field split into four XORed
//     byte planes, so the downstream entropy stage sees long runs of
//     zeros and small per-field alphabets instead of interleaved noise.
//
// The preconditioned stream is then (by default) deflate-compressed.
// Everything is bit-exact: Decode reconstructs each record's event list
// and re-marshals it through evio.Marshal, and Encode falls back to
// storing a record raw whenever the record is not a canonical evio blob,
// so DecodeRecords(EncodeRecords(r)) is byte-identical to r for ANY record
// list. That is the property that lets ground reassembly reproduce the
// onboard journal bitwise. The SigmaE model prediction is a compression
// prior only — a journal written under a non-default detector config still
// round-trips exactly, just with a fatter residual stream.
//
// Batch layout (little-endian):
//
//	batch := magic "ADLC"(4) version(u16) flags(u16) nRecords(uvarint) body
//	body  := dir nhits srcflags arrival planes sigEresid layer
//	         (deflate-compressed as a whole iff flags bit0)
//
//	dir      := uvarint len, then per record:
//	            0x00 nEvents(uvarint) | 0x01 rawLen(uvarint) rawBytes
//	nhits    := uvarint len, then one uvarint per event
//	srcflags := source, flags bytes per event (2·nEvents, unprefixed)
//	arrival  := uvarint len, then one varint per event (bit-pattern delta)
//	planes   := for each float32 field, 4 byte planes of the XOR-against-
//	            previous bit patterns (lengths implied by the counts)
//	sigEresid:= uvarint len, then one uvarint per hit (XOR vs model)
//	layer    := uvarint len, then one uvarint per hit

// CodecVersion is the batch format version.
const CodecVersion uint16 = 2

var codecMagic = [4]byte{'A', 'D', 'L', 'C'}

const (
	codecFlagFlate = 1 << 0

	// MaxBatchRecords bounds a batch so a hostile count varint is rejected
	// before allocation.
	MaxBatchRecords = 1 << 20
	// maxBatchEvents bounds the total events across one batch.
	maxBatchEvents = 1 << 20
	// maxBatchHits bounds the total hits across one batch.
	maxBatchHits = 1 << 24
)

// CodecOptions tunes EncodeRecords. The zero value is the flight default:
// columnar delta preconditioning with a deflate entropy stage.
type CodecOptions struct {
	// NoFlate disables the deflate stage, leaving the pure preconditioned
	// stream (measured separately in EXPERIMENTS.md).
	NoFlate bool
}

// Float32 field columns. Event-level fields come first, hit-level after.
const (
	fTrueSrcX = iota
	fTrueSrcY
	fTrueSrcZ
	fTrueEnergy
	numEventFields
)
const (
	fPosX = numEventFields + iota
	fPosY
	fPosZ
	fHitE
	fSigmaX
	fSigmaY
	fSigmaZ
	numF32Fields
)

// plane32 is a byte-transposed XOR-delta column for one float32 field: the
// bit pattern is XORed against the field's previous value and the four
// result bytes land in four separate planes.
type plane32 struct {
	prev   uint32
	planes [4][]byte
}

func (p *plane32) put(v float64) {
	bits := math.Float32bits(float32(v))
	d := bits ^ p.prev
	p.prev = bits
	p.planes[0] = append(p.planes[0], byte(d))
	p.planes[1] = append(p.planes[1], byte(d>>8))
	p.planes[2] = append(p.planes[2], byte(d>>16))
	p.planes[3] = append(p.planes[3], byte(d>>24))
}

// sigmaEPredictor predicts a hit's reported SigmaE from its measured
// energy using the default detector resolution model — the flight-side
// truth for every journal this repo writes. It is only a prior: the
// residual stream keeps the codec lossless for any input.
var sigmaEModel = detector.DefaultConfig()

func predictSigmaE(e float64) uint32 {
	return math.Float32bits(float32(sigmaEModel.SigmaE(float64(float32(e)))))
}

// Deflate state is large to build and Reset makes it equivalent to a new
// one, so batches reuse it: the output bytes do not change.
var (
	flateWriters = sync.Pool{New: func() any {
		zw, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			panic(err) // DefaultCompression is a valid level
		}
		return zw
	}}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// EncodeRecords packs a batch of journal record payloads into one
// compressed message payload. The encoding is deterministic and
// losslessly invertible by DecodeRecords for any input.
func EncodeRecords(records [][]byte, opts CodecOptions) ([]byte, error) {
	if len(records) > MaxBatchRecords {
		return nil, fmt.Errorf("downlink: batch of %d records exceeds limit %d", len(records), MaxBatchRecords)
	}
	var dir, nhits, srcflags, arrival, sigEresid, layer bytes.Buffer
	fields := make([]plane32, numF32Fields)
	var scratch [binary.MaxVarintLen64]byte
	putU := func(w *bytes.Buffer, v uint64) {
		w.Write(scratch[:binary.PutUvarint(scratch[:], v)])
	}
	putV := func(w *bytes.Buffer, v int64) {
		w.Write(scratch[:binary.PutVarint(scratch[:], v)])
	}

	var prevArrival uint64
	totalEvents, totalHits := 0, 0
	for _, rec := range records {
		if len(rec) > flightlog.MaxRecordBytes {
			return nil, fmt.Errorf("downlink: record of %d bytes exceeds limit", len(rec))
		}
		events, canonical := canonicalEvents(rec)
		if !canonical || totalEvents+len(events) > maxBatchEvents || totalHits+countHits(events) > maxBatchHits {
			dir.WriteByte(1)
			putU(&dir, uint64(len(rec)))
			dir.Write(rec)
			continue
		}
		dir.WriteByte(0)
		putU(&dir, uint64(len(events)))
		totalEvents += len(events)
		for _, ev := range events {
			putU(&nhits, uint64(len(ev.Hits)))
			srcflags.WriteByte(uint8(ev.Source))
			flagByte := byte(0)
			if ev.FullyAbsorbed {
				flagByte = 1
			}
			srcflags.WriteByte(flagByte)
			fields[fTrueSrcX].put(ev.TrueSource.X)
			fields[fTrueSrcY].put(ev.TrueSource.Y)
			fields[fTrueSrcZ].put(ev.TrueSource.Z)
			fields[fTrueEnergy].put(ev.TrueEnergy)
			bits := math.Float64bits(ev.ArrivalTime)
			putV(&arrival, int64(bits-prevArrival))
			prevArrival = bits
			totalHits += len(ev.Hits)
			for i := range ev.Hits {
				h := &ev.Hits[i]
				fields[fPosX].put(h.Pos.X)
				fields[fPosY].put(h.Pos.Y)
				fields[fPosZ].put(h.Pos.Z)
				fields[fHitE].put(h.E)
				fields[fSigmaX].put(h.SigmaX)
				fields[fSigmaY].put(h.SigmaY)
				fields[fSigmaZ].put(h.SigmaZ)
				putU(&sigEresid, uint64(math.Float32bits(float32(h.SigmaE))^predictSigmaE(h.E)))
				putU(&layer, uint64(uint8(h.Layer)))
			}
		}
	}

	var body bytes.Buffer
	writeStream := func(b *bytes.Buffer) {
		putU(&body, uint64(b.Len()))
		body.Write(b.Bytes())
	}
	writeStream(&dir)
	writeStream(&nhits)
	body.Write(srcflags.Bytes()) // length implied: 2·totalEvents
	writeStream(&arrival)
	for i := range fields {
		for _, pl := range fields[i].planes { // lengths implied by counts
			body.Write(pl)
		}
	}
	writeStream(&sigEresid)
	writeStream(&layer)

	flags := uint16(0)
	payload := body.Bytes()
	if !opts.NoFlate {
		var zb bytes.Buffer
		zw := flateWriters.Get().(*flate.Writer)
		zw.Reset(&zb)
		_, err := zw.Write(payload)
		if err == nil {
			err = zw.Close()
		}
		flateWriters.Put(zw)
		if err != nil {
			return nil, err
		}
		payload = zb.Bytes()
		flags |= codecFlagFlate
	}

	out := make([]byte, 0, 16+len(payload))
	out = append(out, codecMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, CodecVersion)
	out = binary.LittleEndian.AppendUint16(out, flags)
	out = binary.AppendUvarint(out, uint64(len(records)))
	out = append(out, payload...)
	return out, nil
}

func countHits(events []*detector.Event) int {
	n := 0
	for _, ev := range events {
		n += len(ev.Hits)
	}
	return n
}

// canonicalEvents decodes rec as an evio blob and reports whether
// re-marshaling the decoded events reproduces rec exactly. Only canonical
// records take the delta path; anything else is stored raw, preserving the
// bitwise contract unconditionally.
func canonicalEvents(rec []byte) ([]*detector.Event, bool) {
	events, err := evio.Unmarshal(rec)
	if err != nil {
		return nil, false
	}
	canon, err := evio.Marshal(events)
	if err != nil || !bytes.Equal(canon, rec) {
		return nil, false
	}
	return events, true
}

// DecodeRecords inverts EncodeRecords, reproducing the original record
// payloads byte for byte. It validates every count and length against the
// package limits before allocating, and never panics on hostile input
// (the property FuzzDeltaEvio pins).
func DecodeRecords(data []byte) ([][]byte, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("downlink: codec payload too short (%d bytes)", len(data))
	}
	if [4]byte(data[0:4]) != codecMagic {
		return nil, fmt.Errorf("downlink: bad codec magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != CodecVersion {
		return nil, fmt.Errorf("downlink: unsupported codec version %d", v)
	}
	flags := binary.LittleEndian.Uint16(data[6:8])
	if flags&^uint16(codecFlagFlate) != 0 {
		return nil, fmt.Errorf("downlink: reserved codec flags %#x set", flags)
	}
	rest := data[8:]
	nRecords, n := binary.Uvarint(rest)
	if n <= 0 || nRecords > MaxBatchRecords {
		return nil, fmt.Errorf("downlink: bad record count")
	}
	body := rest[n:]
	if flags&codecFlagFlate != 0 {
		// Bound decompression to what the record count could legitimately
		// need, so a zip bomb fails fast instead of allocating: each
		// record's bytes and directory entry (kind byte, length varint),
		// plus the length varints of the body's five prefixed streams.
		const perRecord = flightlog.MaxRecordBytes + 1 + binary.MaxVarintLen64
		limit := int64(nRecords)*perRecord + 5*binary.MaxVarintLen64 + 1
		zr := flateReaders.Get().(io.ReadCloser)
		if err := zr.(flate.Resetter).Reset(bytes.NewReader(body), nil); err != nil {
			return nil, fmt.Errorf("downlink: inflate: %w", err)
		}
		raw, err := io.ReadAll(io.LimitReader(zr, limit))
		flateReaders.Put(zr)
		if err != nil {
			return nil, fmt.Errorf("downlink: inflate: %w", err)
		}
		body = raw
	}
	return decodeBody(body, int(nRecords))
}

// cursor is a bounds-checked reader over one length-delimited stream.
type cursor struct {
	name string
	b    []byte
	off  int
}

func (c *cursor) byte() (byte, error) {
	if c.off >= len(c.b) {
		return 0, fmt.Errorf("downlink: truncated %s stream at %d", c.name, c.off)
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || len(c.b)-c.off < n {
		return nil, fmt.Errorf("downlink: truncated %s stream at %d", c.name, c.off)
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("downlink: bad uvarint in %s stream at %d", c.name, c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("downlink: bad varint in %s stream at %d", c.name, c.off)
	}
	c.off += n
	return v, nil
}

func (c *cursor) drained() error {
	if c.off != len(c.b) {
		return fmt.Errorf("downlink: %d trailing bytes in %s stream", len(c.b)-c.off, c.name)
	}
	return nil
}

// planeReader undoes plane32: four parallel byte planes XOR-accumulated
// into float32 bit patterns.
type planeReader struct {
	prev   uint32
	planes [4][]byte
	off    int
}

func (p *planeReader) next() float64 {
	d := uint32(p.planes[0][p.off]) |
		uint32(p.planes[1][p.off])<<8 |
		uint32(p.planes[2][p.off])<<16 |
		uint32(p.planes[3][p.off])<<24
	p.off++
	p.prev ^= d
	return float64(math.Float32frombits(p.prev))
}

// decodeBody parses the preconditioned stream bundle back into records.
func decodeBody(body []byte, nRecords int) ([][]byte, error) {
	top := &cursor{name: "body", b: body}
	stream := func(name string) (*cursor, error) {
		ln, err := top.uvarint()
		if err != nil {
			return nil, err
		}
		if ln > uint64(len(top.b)-top.off) {
			return nil, fmt.Errorf("downlink: %s stream of %d bytes exceeds body", name, ln)
		}
		b, err := top.take(int(ln))
		if err != nil {
			return nil, err
		}
		return &cursor{name: name, b: b}, nil
	}

	// Pass 1: the record directory fixes the shape of everything after it.
	dir, err := stream("dir")
	if err != nil {
		return nil, err
	}
	type recMeta struct {
		raw     []byte // nil for delta records
		nEvents int
	}
	metas := make([]recMeta, 0, min(nRecords, 4096))
	totalEvents := 0
	for i := 0; i < nRecords; i++ {
		kind, err := dir.byte()
		if err != nil {
			return nil, err
		}
		switch kind {
		case 1:
			ln, err := dir.uvarint()
			if err != nil {
				return nil, err
			}
			if ln > flightlog.MaxRecordBytes {
				return nil, fmt.Errorf("downlink: raw record of %d bytes exceeds limit", ln)
			}
			raw, err := dir.take(int(ln))
			if err != nil {
				return nil, err
			}
			metas = append(metas, recMeta{raw: raw})
		case 0:
			ne, err := dir.uvarint()
			if err != nil {
				return nil, err
			}
			if totalEvents+int(ne) > maxBatchEvents || ne > maxBatchEvents {
				return nil, fmt.Errorf("downlink: batch events exceed limit")
			}
			totalEvents += int(ne)
			metas = append(metas, recMeta{nEvents: int(ne)})
		default:
			return nil, fmt.Errorf("downlink: unknown record kind %d", kind)
		}
	}
	if err := dir.drained(); err != nil {
		return nil, err
	}

	// Pass 2: hit counts fix the hit-level column sizes.
	nhits, err := stream("nhits")
	if err != nil {
		return nil, err
	}
	hitCounts := make([]int, totalEvents)
	totalHits := 0
	for i := range hitCounts {
		nh, err := nhits.uvarint()
		if err != nil {
			return nil, err
		}
		if nh > math.MaxUint16 || totalHits+int(nh) > maxBatchHits {
			return nil, fmt.Errorf("downlink: batch hits exceed limit")
		}
		hitCounts[i] = int(nh)
		totalHits += int(nh)
	}
	if err := nhits.drained(); err != nil {
		return nil, err
	}

	srcflags, err := top.take(2 * totalEvents)
	if err != nil {
		return nil, err
	}
	arrival, err := stream("arrival")
	if err != nil {
		return nil, err
	}
	fields := make([]planeReader, numF32Fields)
	for i := range fields {
		count := totalEvents
		if i >= numEventFields {
			count = totalHits
		}
		for pl := 0; pl < 4; pl++ {
			b, err := top.take(count)
			if err != nil {
				return nil, fmt.Errorf("downlink: truncated field planes")
			}
			fields[i].planes[pl] = b
		}
	}
	sigEresid, err := stream("sigEresid")
	if err != nil {
		return nil, err
	}
	layer, err := stream("layer")
	if err != nil {
		return nil, err
	}
	if err := top.drained(); err != nil {
		return nil, err
	}

	// Pass 3: reconstruct each record and re-marshal through evio.
	var prevArrival uint64
	evIdx := 0
	records := make([][]byte, 0, len(metas))
	for _, m := range metas {
		if m.raw != nil {
			records = append(records, append([]byte(nil), m.raw...))
			continue
		}
		events := make([]*detector.Event, 0, m.nEvents)
		for e := 0; e < m.nEvents; e++ {
			nh := hitCounts[evIdx]
			ev := &detector.Event{
				Source:        detector.SourceKind(srcflags[2*evIdx]),
				FullyAbsorbed: srcflags[2*evIdx+1]&1 != 0,
				Hits:          make([]detector.Hit, nh),
			}
			ev.TrueSource.X = fields[fTrueSrcX].next()
			ev.TrueSource.Y = fields[fTrueSrcY].next()
			ev.TrueSource.Z = fields[fTrueSrcZ].next()
			ev.TrueEnergy = fields[fTrueEnergy].next()
			d, err := arrival.varint()
			if err != nil {
				return nil, err
			}
			prevArrival += uint64(d)
			ev.ArrivalTime = math.Float64frombits(prevArrival)
			for h := range ev.Hits {
				hit := &ev.Hits[h]
				hit.Pos = geom.Vec{
					X: fields[fPosX].next(),
					Y: fields[fPosY].next(),
					Z: fields[fPosZ].next(),
				}
				hit.E = fields[fHitE].next()
				hit.SigmaX = fields[fSigmaX].next()
				hit.SigmaY = fields[fSigmaY].next()
				hit.SigmaZ = fields[fSigmaZ].next()
				resid, err := sigEresid.uvarint()
				if err != nil {
					return nil, err
				}
				if resid > math.MaxUint32 {
					return nil, fmt.Errorf("downlink: sigmaE residual out of range")
				}
				hit.SigmaE = float64(math.Float32frombits(uint32(resid) ^ predictSigmaE(hit.E)))
				ly, err := layer.uvarint()
				if err != nil {
					return nil, err
				}
				if ly > math.MaxUint8 {
					return nil, fmt.Errorf("downlink: layer %d out of range", ly)
				}
				hit.Layer = int(ly)
			}
			events = append(events, ev)
			evIdx++
		}
		rec, err := evio.Marshal(events)
		if err != nil {
			return nil, err
		}
		records = append(records, rec)
	}
	for _, c := range []*cursor{arrival, sigEresid, layer} {
		if err := c.drained(); err != nil {
			return nil, err
		}
	}
	return records, nil
}
