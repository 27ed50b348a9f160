package downlink

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/flightlog"
	"repro/internal/geom"
)

// The event-based ADLC codec the byte-level one replaced, kept as the
// reference FuzzCodecMatchesReference compares it with: EncodeRecords
// decodes every record into events and re-marshals them to decide whether
// it is canonical, and DecodeRecords rebuilds each event before marshaling
// it. The batch format is the same; only the route through detector.Event
// differs.

// refPlane32 is a byte-transposed XOR-delta column for one float32 field.
type refPlane32 struct {
	prev   uint32
	planes [4][]byte
}

func (p *refPlane32) put(v float64) {
	bits := math.Float32bits(float32(v))
	d := bits ^ p.prev
	p.prev = bits
	p.planes[0] = append(p.planes[0], byte(d))
	p.planes[1] = append(p.planes[1], byte(d>>8))
	p.planes[2] = append(p.planes[2], byte(d>>16))
	p.planes[3] = append(p.planes[3], byte(d>>24))
}

// refPredictSigmaE is the SigmaE prior on a decoded hit energy.
func refPredictSigmaE(e float64) uint32 {
	return math.Float32bits(float32(sigmaEModel.SigmaE(float64(float32(e)))))
}

// refNext is planeReader.next as the event-based decoder used it: the
// field's value as a float64.
func refNext(p *planeReader) float64 { return float64(math.Float32frombits(p.next())) }

func refEncodeRecords(records [][]byte, opts CodecOptions) ([]byte, error) {
	if len(records) > MaxBatchRecords {
		return nil, fmt.Errorf("downlink: batch of %d records exceeds limit %d", len(records), MaxBatchRecords)
	}
	var dir, nhits, srcflags, arrival, sigEresid, layer bytes.Buffer
	fields := make([]refPlane32, numF32Fields)
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
		events, canonical := refCanonicalEvents(rec)
		if !canonical || totalEvents+len(events) > maxBatchEvents || totalHits+refCountHits(events) > maxBatchHits {
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
				putU(&sigEresid, uint64(math.Float32bits(float32(h.SigmaE))^refPredictSigmaE(h.E)))
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
	body.Write(srcflags.Bytes())
	writeStream(&arrival)
	for i := range fields {
		for _, pl := range fields[i].planes {
			body.Write(pl)
		}
	}
	writeStream(&sigEresid)
	writeStream(&layer)

	flags := uint16(0)
	payload := body.Bytes()
	if !opts.NoFlate {
		var zb bytes.Buffer
		zw, err := flate.NewWriter(&zb, flate.DefaultCompression)
		if err != nil {
			return nil, err
		}
		if _, err := zw.Write(payload); err != nil {
			return nil, err
		}
		if err := zw.Close(); err != nil {
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

func refCountHits(events []*detector.Event) int {
	n := 0
	for _, ev := range events {
		n += len(ev.Hits)
	}
	return n
}

// refCanonicalEvents decodes rec and reports whether re-marshaling the
// decoded events reproduces rec exactly.
func refCanonicalEvents(rec []byte) ([]*detector.Event, bool) {
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

func refDecodeRecords(data []byte) ([][]byte, error) {
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
		const perRecord = flightlog.MaxRecordBytes + 1 + binary.MaxVarintLen64
		limit := int64(nRecords)*perRecord + 5*binary.MaxVarintLen64 + 1
		raw, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(body)), limit))
		if err != nil {
			return nil, fmt.Errorf("downlink: inflate: %w", err)
		}
		body = raw
	}
	return refDecodeBody(body, int(nRecords))
}

func refDecodeBody(body []byte, nRecords int) ([][]byte, error) {
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

	dir, err := stream("dir")
	if err != nil {
		return nil, err
	}
	type recMeta struct {
		raw     []byte
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
			ev.TrueSource.X = refNext(&fields[fTrueSrcX])
			ev.TrueSource.Y = refNext(&fields[fTrueSrcY])
			ev.TrueSource.Z = refNext(&fields[fTrueSrcZ])
			ev.TrueEnergy = refNext(&fields[fTrueEnergy])
			d, err := arrival.varint()
			if err != nil {
				return nil, err
			}
			prevArrival += uint64(d)
			ev.ArrivalTime = math.Float64frombits(prevArrival)
			for h := range ev.Hits {
				hit := &ev.Hits[h]
				hit.Pos = geom.Vec{
					X: refNext(&fields[fPosX]),
					Y: refNext(&fields[fPosY]),
					Z: refNext(&fields[fPosZ]),
				}
				hit.E = refNext(&fields[fHitE])
				hit.SigmaX = refNext(&fields[fSigmaX])
				hit.SigmaY = refNext(&fields[fSigmaY])
				hit.SigmaZ = refNext(&fields[fSigmaZ])
				resid, err := sigEresid.uvarint()
				if err != nil {
					return nil, err
				}
				if resid > math.MaxUint32 {
					return nil, fmt.Errorf("downlink: sigmaE residual out of range")
				}
				hit.SigmaE = float64(math.Float32frombits(uint32(resid) ^ refPredictSigmaE(hit.E)))
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
