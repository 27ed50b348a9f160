package downlink

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
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
// Both directions work on evio bytes and never build a detector.Event:
// Encode reads the fields of each canonical record (evio.Canonical: the
// bytes evio.Marshal would give its decoded events) straight from the
// record and stores any other record raw; Decode writes the records' evio
// bytes straight from the columns, with each float32 field as an evio
// decode and re-encode leaves it (evio.F32RoundTrip). So
// DecodeRecords(EncodeRecords(r)) is byte-identical to r for ANY record
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

// Offsets of the fields the columns carry, within an evio event header
// and hit (the layout of the evio package comment). The float32 columns
// follow the layout's order: the four event-level fields from
// evTrueSrc on, the seven hit-level ones before hitSigmaE from 0.
const (
	evNHits    = 0
	evSource   = 2
	evFlags    = 3
	evTrueSrc  = 4
	evArrival  = 20
	hitE       = 12
	hitSigmaE  = 28
	hitLayer   = 32
	evioFlags  = 1 // the flag bits evio defines
	maxPoolBuf = 8 << 20
)

// sigmaEModel predicts a hit's reported SigmaE from its measured
// energy using the default detector resolution model — the flight-side
// truth for every journal this repo writes. It is only a prior: the
// residual stream keeps the codec lossless for any input.
var sigmaEModel = detector.DefaultConfig()

// predictSigmaE is the model's SigmaE, as float32 bits, for the hit energy
// whose float32 bits are eBits.
func predictSigmaE(eBits uint32) uint32 {
	e := float64(math.Float32frombits(eBits))
	return math.Float32bits(float32(sigmaEModel.SigmaE(float64(float32(e)))))
}

// appendBuf is an io.Writer appending to a reusable byte slice.
type appendBuf struct{ b []byte }

func (w *appendBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// encoder is the scratch of one EncodeRecords call: the body's streams and
// the deflate state, which is large to build and which Reset makes
// equivalent to a new one. Batches reuse it through a pool, so a batch
// allocates only its output; the output bytes do not change.
type encoder struct {
	dir, nhits, srcflags, arrival, sigE, layer []byte
	prev                                       [numF32Fields]uint32
	planes                                     [numF32Fields][4][]byte
	body                                       []byte
	zbuf                                       appendBuf
	zw                                         *flate.Writer
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// put appends float32 bits to field f's column: XORed against the field's
// previous value, the four result bytes in four separate planes.
func (e *encoder) put(f int, bits uint32) {
	d := bits ^ e.prev[f]
	e.prev[f] = bits
	pl := &e.planes[f]
	pl[0] = append(pl[0], byte(d))
	pl[1] = append(pl[1], byte(d>>8))
	pl[2] = append(pl[2], byte(d>>16))
	pl[3] = append(pl[3], byte(d>>24))
}

// reset empties every stream, keeping its storage.
func (e *encoder) reset() {
	e.dir, e.nhits, e.srcflags = e.dir[:0], e.nhits[:0], e.srcflags[:0]
	e.arrival, e.sigE, e.layer = e.arrival[:0], e.sigE[:0], e.layer[:0]
	e.prev = [numF32Fields]uint32{}
	for f := range e.planes {
		for i := range e.planes[f] {
			e.planes[f][i] = e.planes[f][i][:0]
		}
	}
}

// appendRecord appends the columns of one canonical record.
func (e *encoder) appendRecord(rec []byte, prevArrival *uint64) {
	for data := rec[evio.HeaderSize:]; len(data) > 0; {
		n := int(binary.LittleEndian.Uint16(data[evNHits:]))
		e.nhits = binary.AppendUvarint(e.nhits, uint64(n))
		e.srcflags = append(e.srcflags, data[evSource], data[evFlags])
		for f := 0; f < numEventFields; f++ {
			e.put(f, binary.LittleEndian.Uint32(data[evTrueSrc+4*f:]))
		}
		bits := binary.LittleEndian.Uint64(data[evArrival:])
		e.arrival = binary.AppendVarint(e.arrival, int64(bits-*prevArrival))
		*prevArrival = bits
		data = data[evio.EventHeaderSize:]
		for ; n > 0; n-- {
			for f := numEventFields; f < numF32Fields; f++ {
				e.put(f, binary.LittleEndian.Uint32(data[4*(f-numEventFields):]))
			}
			sigE := binary.LittleEndian.Uint32(data[hitSigmaE:])
			e.sigE = binary.AppendUvarint(e.sigE, uint64(sigE^predictSigmaE(binary.LittleEndian.Uint32(data[hitE:]))))
			e.layer = binary.AppendUvarint(e.layer, uint64(data[hitLayer]))
			data = data[evio.HitSize:]
		}
	}
}

// EncodeRecords packs a batch of journal record payloads into one
// compressed message payload. The encoding is deterministic and
// losslessly invertible by DecodeRecords for any input.
func EncodeRecords(records [][]byte, opts CodecOptions) ([]byte, error) {
	if len(records) > MaxBatchRecords {
		return nil, fmt.Errorf("downlink: batch of %d records exceeds limit %d", len(records), MaxBatchRecords)
	}
	e := encoders.Get().(*encoder)
	defer func() {
		if cap(e.body) <= maxPoolBuf && cap(e.zbuf.b) <= maxPoolBuf {
			encoders.Put(e)
		}
	}()
	e.reset()
	var prevArrival uint64
	totalEvents, totalHits := 0, 0
	for _, rec := range records {
		if len(rec) > flightlog.MaxRecordBytes {
			return nil, fmt.Errorf("downlink: record of %d bytes exceeds limit", len(rec))
		}
		nEvents, nHits, canonical := evio.Canonical(rec)
		if !canonical || totalEvents+nEvents > maxBatchEvents || totalHits+nHits > maxBatchHits {
			e.dir = append(e.dir, 1)
			e.dir = binary.AppendUvarint(e.dir, uint64(len(rec)))
			e.dir = append(e.dir, rec...)
			continue
		}
		e.dir = append(e.dir, 0)
		e.dir = binary.AppendUvarint(e.dir, uint64(nEvents))
		totalEvents += nEvents
		totalHits += nHits
		e.appendRecord(rec, &prevArrival)
	}

	body := e.body[:0]
	stream := func(b []byte) {
		body = binary.AppendUvarint(body, uint64(len(b)))
		body = append(body, b...)
	}
	stream(e.dir)
	stream(e.nhits)
	body = append(body, e.srcflags...) // length implied: 2·totalEvents
	stream(e.arrival)
	for f := range e.planes {
		for _, pl := range e.planes[f] { // lengths implied by counts
			body = append(body, pl...)
		}
	}
	stream(e.sigE)
	stream(e.layer)
	e.body = body

	flags := uint16(0)
	payload := body
	if !opts.NoFlate {
		e.zbuf.b = e.zbuf.b[:0]
		if e.zw == nil {
			zw, err := flate.NewWriter(&e.zbuf, flate.DefaultCompression)
			if err != nil {
				return nil, err // unreachable: DefaultCompression is a valid level
			}
			e.zw = zw
		} else {
			e.zw.Reset(&e.zbuf)
		}
		if _, err := e.zw.Write(body); err != nil {
			return nil, err
		}
		if err := e.zw.Close(); err != nil {
			return nil, err
		}
		payload = e.zbuf.b
		flags |= codecFlagFlate
	}

	out := make([]byte, 0, 8+binary.MaxVarintLen64+len(payload))
	out = append(out, codecMagic[:]...)
	out = binary.LittleEndian.AppendUint16(out, CodecVersion)
	out = binary.LittleEndian.AppendUint16(out, flags)
	out = binary.AppendUvarint(out, uint64(len(records)))
	return append(out, payload...), nil
}

// decoder is the scratch of one DecodeRecords call: the inflated body, the
// inflate state and the batch's record directory and hit counts, reused
// through a pool. The records a call returns never alias it.
type decoder struct {
	src       bytes.Reader
	zr        io.ReadCloser
	body      []byte
	metas     []recMeta
	hitCounts []int
}

// recMeta is one record of the directory: raw bytes, or a delta record's
// event count.
type recMeta struct {
	raw     []byte // nil for delta records
	nEvents int
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// inflate decompresses body into the decoder's buffer, reading at most
// limit bytes, and returns the buffer: io.ReadAll of an io.LimitReader,
// without allocating once the buffer has grown.
func (d *decoder) inflate(body []byte, limit int64) ([]byte, error) {
	d.src.Reset(body)
	if d.zr == nil {
		d.zr = flate.NewReader(&d.src)
	} else if err := d.zr.(flate.Resetter).Reset(&d.src, nil); err != nil {
		return nil, err
	}
	b := d.body[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // let append pick the growth
		}
		room := b[len(b):cap(b)]
		if rest := limit - int64(len(b)); int64(len(room)) > rest {
			room = room[:rest]
		}
		n, err := d.zr.Read(room)
		b = b[:len(b)+n]
		d.body = b
		switch {
		case err == io.EOF:
			return b, nil
		case err != nil:
			return nil, err
		case int64(len(b)) == limit:
			return b, nil // the rest is not read, as io.LimitReader would not
		}
	}
}

// DecodeRecords inverts EncodeRecords, reproducing the original record
// payloads byte for byte. It validates every count and length against the
// package limits before allocating, and never panics on hostile input
// (the property FuzzDeltaEvio pins). The records are capacity-clipped
// slices of one buffer allocated for the batch.
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
	d := decoders.Get().(*decoder)
	defer func() {
		d.src.Reset(nil)
		if cap(d.body) <= maxPoolBuf {
			decoders.Put(d)
		}
	}()
	body := rest[n:]
	if flags&codecFlagFlate != 0 {
		// Bound decompression to what the record count could legitimately
		// need, so a zip bomb fails fast instead of allocating: each
		// record's bytes and directory entry (kind byte, length varint),
		// plus the length varints of the body's five prefixed streams.
		const perRecord = flightlog.MaxRecordBytes + 1 + binary.MaxVarintLen64
		limit := int64(nRecords)*perRecord + 5*binary.MaxVarintLen64 + 1
		raw, err := d.inflate(body, limit)
		if err != nil {
			return nil, fmt.Errorf("downlink: inflate: %w", err)
		}
		body = raw
	}
	return d.decodeBody(body, int(nRecords))
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

// stream reads one length-prefixed stream of the body at c.
func (c *cursor) stream(name string) (cursor, error) {
	ln, err := c.uvarint()
	if err != nil {
		return cursor{}, err
	}
	if ln > uint64(len(c.b)-c.off) {
		return cursor{}, fmt.Errorf("downlink: %s stream of %d bytes exceeds body", name, ln)
	}
	b, err := c.take(int(ln))
	return cursor{name: name, b: b}, err
}

// planeReader undoes a column: four parallel byte planes XOR-accumulated
// into float32 bit patterns.
type planeReader struct {
	prev   uint32
	planes [4][]byte
	off    int
}

func (p *planeReader) next() uint32 {
	d := uint32(p.planes[0][p.off]) |
		uint32(p.planes[1][p.off])<<8 |
		uint32(p.planes[2][p.off])<<16 |
		uint32(p.planes[3][p.off])<<24
	p.off++
	p.prev ^= d
	return p.prev
}

// decodeBody parses the preconditioned stream bundle back into records.
func (d *decoder) decodeBody(body []byte, nRecords int) ([][]byte, error) {
	top := cursor{name: "body", b: body}

	// Pass 1: the record directory fixes the shape of everything after it.
	dir, err := top.stream("dir")
	if err != nil {
		return nil, err
	}
	metas := d.metas[:0]
	defer func() { clear(metas); d.metas = metas[:0] }() // drop the raw slices into body
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
	nhits, err := top.stream("nhits")
	if err != nil {
		return nil, err
	}
	hitCounts := slices.Grow(d.hitCounts[:0], totalEvents)[:totalEvents]
	d.hitCounts = hitCounts
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
	arrival, err := top.stream("arrival")
	if err != nil {
		return nil, err
	}
	var fields [numF32Fields]planeReader
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
	sigEresid, err := top.stream("sigEresid")
	if err != nil {
		return nil, err
	}
	layer, err := top.stream("layer")
	if err != nil {
		return nil, err
	}
	if err := top.drained(); err != nil {
		return nil, err
	}

	// Pass 3: write each record's evio bytes into one output buffer.
	size := 0
	for _, m := range metas {
		if m.raw != nil {
			size += len(m.raw)
		} else {
			size += evio.HeaderSize + m.nEvents*evio.EventHeaderSize
		}
	}
	out := make([]byte, size+totalHits*evio.HitSize)
	records := make([][]byte, 0, len(metas))
	var prevArrival uint64
	evIdx, off := 0, 0
	for _, m := range metas {
		start := off
		if m.raw != nil {
			off += copy(out[off:], m.raw)
			records = append(records, out[start:off:off])
			continue
		}
		off = len(evio.AppendHeader(out[:off]))
		for e := 0; e < m.nEvents; e++ {
			nh := hitCounts[evIdx]
			ev := out[off : off+evio.EventHeaderSize]
			binary.LittleEndian.PutUint16(ev[evNHits:], uint16(nh))
			ev[evSource] = srcflags[2*evIdx]
			ev[evFlags] = srcflags[2*evIdx+1] & evioFlags
			for f := 0; f < numEventFields; f++ {
				binary.LittleEndian.PutUint32(ev[evTrueSrc+4*f:], evio.F32RoundTrip(fields[f].next()))
			}
			delta, err := arrival.varint()
			if err != nil {
				return nil, err
			}
			prevArrival += uint64(delta)
			binary.LittleEndian.PutUint64(ev[evArrival:], prevArrival)
			off += evio.EventHeaderSize
			for h := 0; h < nh; h++ {
				hit := out[off : off+evio.HitSize]
				var eBits uint32
				for f := numEventFields; f < numF32Fields; f++ {
					bits := fields[f].next()
					if f == fHitE {
						eBits = bits
					}
					binary.LittleEndian.PutUint32(hit[4*(f-numEventFields):], evio.F32RoundTrip(bits))
				}
				resid, err := sigEresid.uvarint()
				if err != nil {
					return nil, err
				}
				if resid > math.MaxUint32 {
					return nil, fmt.Errorf("downlink: sigmaE residual out of range")
				}
				binary.LittleEndian.PutUint32(hit[hitSigmaE:], evio.F32RoundTrip(uint32(resid)^predictSigmaE(eBits)))
				ly, err := layer.uvarint()
				if err != nil {
					return nil, err
				}
				if ly > math.MaxUint8 {
					return nil, fmt.Errorf("downlink: layer %d out of range", ly)
				}
				hit[hitLayer] = byte(ly) // the padding after it is already zero
				off += evio.HitSize
			}
			evIdx++
		}
		records = append(records, out[start:off:off])
	}
	for _, c := range []*cursor{&arrival, &sigEresid, &layer} {
		if err := c.drained(); err != nil {
			return nil, err
		}
	}
	return records, nil
}
