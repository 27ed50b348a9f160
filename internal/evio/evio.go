// Package evio serializes detector events in a compact binary framing
// suitable for the instrument's storage and telemetry budget, with a
// streaming reader/writer pair. The format is versioned and
// little-endian:
//
//	file   := magic(4) version(u16) reserved(u16) record*
//	record := eventHeader hits*
//	eventHeader := nHits(u16) source(u8) flags(u8) trueSrc(3×f32)
//	               trueEnergy(f32) arrival(f64)
//	hit    := pos(3×f32) e(f32) sigmaXYZ(3×f32) sigmaE(f32) layer(u8) pad(3)
//
// Ground-truth fields (true source, energy, source label) travel with the
// event because the format's first consumer is the simulation/training
// loop; a flight build would zero them. TrueHits are not serialized — they
// exist only for diagnostics inside a single process.
//
// One fixed-layout record codec on byte slices serves the streaming
// Writer/Reader and the in-memory Marshal/Unmarshal alike. A stream may
// end only where an event header would start; running out of bytes
// anywhere inside the stream header or an event is io.ErrUnexpectedEOF.
package evio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/detector"
	"repro/internal/geom"
)

// magic identifies evio streams ("ADEV").
var magic = [4]byte{'A', 'D', 'E', 'V'}

// Version of the on-disk format.
const Version uint16 = 1

// flag bits in the event header.
const (
	flagFullyAbsorbed = 1 << 0
)

// Fixed sizes of the layout's three parts, in bytes.
const (
	fileHeaderSize  = 8
	eventHeaderSize = 28
	hitSize         = 36
)

// appendFileHeader appends the stream header to b.
func appendFileHeader(b []byte) []byte {
	b = append(b, magic[:]...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	return binary.LittleEndian.AppendUint16(b, 0) // reserved
}

// checkFileHeader validates a fileHeaderSize-byte stream header.
func checkFileHeader(h []byte) error {
	if m := [4]byte(h[:4]); m != magic {
		return fmt.Errorf("evio: bad magic %q", m)
	}
	if v := binary.LittleEndian.Uint16(h[4:6]); v != Version {
		return fmt.Errorf("evio: unsupported version %d", v)
	}
	return nil
}

// checkHits rejects an event the u16 hit count cannot describe.
func checkHits(ev *detector.Event) error {
	if len(ev.Hits) > math.MaxUint16 {
		return fmt.Errorf("evio: event with %d hits exceeds format limit", len(ev.Hits))
	}
	return nil
}

// recordSize is the encoded size of ev's record.
func recordSize(ev *detector.Event) int {
	return eventHeaderSize + len(ev.Hits)*hitSize
}

func appendF32(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
}

func getF32(b []byte) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))
}

// appendEvent appends ev's record to b. The caller has checked the hit
// count with checkHits.
func appendEvent(b []byte, ev *detector.Event) []byte {
	b = slices.Grow(b, recordSize(ev))
	var flags uint8
	if ev.FullyAbsorbed {
		flags |= flagFullyAbsorbed
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(ev.Hits)))
	b = append(b, uint8(ev.Source), flags)
	b = appendF32(b, ev.TrueSource.X)
	b = appendF32(b, ev.TrueSource.Y)
	b = appendF32(b, ev.TrueSource.Z)
	b = appendF32(b, ev.TrueEnergy)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.ArrivalTime))
	for i := range ev.Hits {
		h := &ev.Hits[i]
		b = appendF32(b, h.Pos.X)
		b = appendF32(b, h.Pos.Y)
		b = appendF32(b, h.Pos.Z)
		b = appendF32(b, h.E)
		b = appendF32(b, h.SigmaX)
		b = appendF32(b, h.SigmaY)
		b = appendF32(b, h.SigmaZ)
		b = appendF32(b, h.SigmaE)
		b = append(b, uint8(h.Layer), 0, 0, 0) // layer, pad
	}
	return b
}

// decodeEventHeader decodes an eventHeaderSize-byte event header into a
// new event without hits, and returns the hit count it announces.
func decodeEventHeader(rec []byte) (*detector.Event, int) {
	rec = rec[:eventHeaderSize]
	return &detector.Event{
		Source:        detector.SourceKind(rec[2]),
		TrueSource:    geom.Vec{X: getF32(rec[4:]), Y: getF32(rec[8:]), Z: getF32(rec[12:])},
		TrueEnergy:    getF32(rec[16:]),
		ArrivalTime:   math.Float64frombits(binary.LittleEndian.Uint64(rec[20:])),
		FullyAbsorbed: rec[3]&flagFullyAbsorbed != 0,
	}, int(binary.LittleEndian.Uint16(rec[0:]))
}

// decodeHit decodes one hitSize-byte hit.
func decodeHit(rec []byte) detector.Hit {
	rec = rec[:hitSize]
	return detector.Hit{
		Pos:    geom.Vec{X: getF32(rec[0:]), Y: getF32(rec[4:]), Z: getF32(rec[8:])},
		E:      getF32(rec[12:]),
		SigmaX: getF32(rec[16:]),
		SigmaY: getF32(rec[20:]),
		SigmaZ: getF32(rec[24:]),
		SigmaE: getF32(rec[28:]),
		Layer:  int(rec[32]),
	}
}

// Writer streams events to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	wrote  bool
	closed bool
}

// NewWriter starts a stream on w. The header is written lazily with the
// first event (or by Close for an empty stream).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (w *Writer) header() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	_, err := w.w.Write(appendFileHeader(w.w.AvailableBuffer()))
	return err
}

// WriteEvent appends one event to the stream.
func (w *Writer) WriteEvent(ev *detector.Event) error {
	if w.closed {
		return errors.New("evio: write after Close")
	}
	if err := checkHits(ev); err != nil {
		return err
	}
	if err := w.header(); err != nil {
		return err
	}
	_, err := w.w.Write(appendEvent(w.w.AvailableBuffer(), ev))
	return err
}

// Close flushes the stream (writing the header even if no events were
// written). It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.header(); err != nil {
		return err
	}
	return w.w.Flush()
}

// Reader streams events from an io.Reader.
type Reader struct {
	r       *bufio.Reader
	started bool
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r)}
}

// start reads the stream header. Input that ends before its first byte
// is an empty stream (io.EOF).
func (r *Reader) start() error {
	if r.started {
		return nil
	}
	r.started = true
	var h [fileHeaderSize]byte
	if _, err := io.ReadFull(r.r, h[:]); err == io.EOF {
		return io.EOF
	} else if err != nil {
		return fmt.Errorf("evio: stream header: %w", err)
	}
	return checkFileHeader(h[:])
}

// ReadEvent returns the next event, or io.EOF at end of stream.
func (r *Reader) ReadEvent() (*detector.Event, error) {
	if err := r.start(); err != nil {
		return nil, err
	}
	var rec [max(eventHeaderSize, hitSize)]byte
	if _, err := io.ReadFull(r.r, rec[:eventHeaderSize]); err == io.EOF {
		return nil, io.EOF
	} else if err != nil {
		return nil, fmt.Errorf("evio: event header: %w", err)
	}
	ev, n := decodeEventHeader(rec[:])
	// The count is untrusted: size the slice by the hits already
	// buffered and let it grow as more arrive.
	ev.Hits = make([]detector.Hit, 0, min(n, r.r.Buffered()/hitSize))
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r.r, rec[:hitSize]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the event header promised this hit
			}
			return nil, fmt.Errorf("evio: hit %d: %w", i, err)
		}
		ev.Hits = append(ev.Hits, decodeHit(rec[:]))
	}
	return ev, nil
}

// ReadAll drains the stream.
func (r *Reader) ReadAll() ([]*detector.Event, error) {
	var out []*detector.Event
	for {
		ev, err := r.ReadEvent()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, ev)
	}
}

// WriteAll writes all events and closes the stream.
func WriteAll(w io.Writer, events []*detector.Event) error {
	ew := NewWriter(w)
	for _, ev := range events {
		if err := ew.WriteEvent(ev); err != nil {
			return err
		}
	}
	return ew.Close()
}

// Marshal encodes events as one self-contained evio stream in memory —
// the payload form the flight journal records (one blob per admitted
// event or exposure). The encoding is deterministic: equal event lists
// produce equal bytes.
func Marshal(events []*detector.Event) ([]byte, error) {
	size := fileHeaderSize
	for _, ev := range events {
		if err := checkHits(ev); err != nil {
			return nil, err
		}
		size += recordSize(ev)
	}
	b := appendFileHeader(make([]byte, 0, size))
	for _, ev := range events {
		b = appendEvent(b, ev)
	}
	return b, nil
}

// Unmarshal decodes a stream produced by Marshal (or any evio stream held
// in memory). It accepts and rejects exactly what NewReader(...).ReadAll
// does, returning the same events.
func Unmarshal(data []byte) ([]*detector.Event, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < fileHeaderSize {
		return nil, fmt.Errorf("evio: stream header: %w", io.ErrUnexpectedEOF)
	}
	if err := checkFileHeader(data); err != nil {
		return nil, err
	}
	data = data[fileHeaderSize:]
	var out []*detector.Event
	for len(data) > 0 {
		if len(data) < eventHeaderSize {
			return out, fmt.Errorf("evio: event header: %w", io.ErrUnexpectedEOF)
		}
		ev, n := decodeEventHeader(data)
		data = data[eventHeaderSize:]
		// Check the untrusted count against the bytes present before
		// allocating for it.
		if len(data) < n*hitSize {
			return out, fmt.Errorf("evio: hit %d: %w", len(data)/hitSize, io.ErrUnexpectedEOF)
		}
		ev.Hits = make([]detector.Hit, n)
		for i := range ev.Hits {
			ev.Hits[i] = decodeHit(data[i*hitSize:])
		}
		data = data[n*hitSize:]
		out = append(out, ev)
	}
	return out, nil
}
