package skymap

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/sky"
)

// Binary payload format (all integers little-endian, floats IEEE-754
// binary32), mirroring the evio/flightlog framing idiom (ASCII magic,
// version word, trailing CRC-32/IEEE over everything before it):
//
//	offset  size  field
//	0       4     magic "ASKM"
//	4       2     version (= 1)
//	6       2     flags (reserved, must be 0)
//	8       2     coarseBands
//	10      2     refineFactor
//	12      4     temperature (f32, > 0)
//	16      4     logFloor (f32, < 0; quantization floor in ln units)
//	20      12    peakDir (3 × f32 unit vector)
//	32      4     thr68 (f32; relative ln density at the 68% contour)
//	36      4     thr90
//	40      4     area68 (f32, deg²)
//	44      4     area90
//	48      4     nCoarse (u32; must equal the coarse grid pixel count)
//	52      4     nTiles (u32)
//	56      —     coarse layer: nCoarse × u8 quantized values
//	…       —     nTiles tiles, ascending coarse index, each:
//	                coarse u32 | nFine u16 | nFine × u16 quantized values
//	end−4   4     CRC-32/IEEE of all preceding bytes
//
// The fine-pixel membership of each tile is NOT serialized: it is a pure
// function of (coarseBands, refineFactor), recomputed by the decoder, so
// nFine is pure validation. Decode accepts exactly the bytes Encode
// produces — every reserved bit, count, and the CRC are checked, and any
// trailing bytes are an error — which makes encode→decode→encode the
// identity on valid payloads (the property FuzzSkymapDecode pins).

// Magic identifies a skymap payload.
const Magic = "ASKM"

// Version is the payload format version.
const Version = 1

const headerSize = 56

// EncodedSize returns the exact payload size in bytes.
func (m *Map) EncodedSize() int {
	n := headerSize + len(m.Coarse) + 4
	for _, t := range m.Tiles {
		n += 6 + 2*len(t.Values)
	}
	return n
}

// Encode serializes the map. It is a pure function of the exported fields.
func (m *Map) Encode() []byte {
	b := make([]byte, 0, m.EncodedSize())
	b = append(b, Magic...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.LittleEndian.AppendUint16(b, 0) // flags
	b = binary.LittleEndian.AppendUint16(b, uint16(m.CoarseBands))
	b = binary.LittleEndian.AppendUint16(b, uint16(m.RefineFactor))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(m.Temperature))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(m.LogFloor))
	for _, c := range m.PeakDir {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(c))
	}
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(m.Thr68))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(m.Thr90))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(m.Area68))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(m.Area90))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Coarse)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Tiles)))
	b = append(b, m.Coarse...)
	for _, t := range m.Tiles {
		b = binary.LittleEndian.AppendUint32(b, uint32(t.Coarse))
		b = binary.LittleEndian.AppendUint16(b, uint16(len(t.Values)))
		for _, v := range t.Values {
			b = binary.LittleEndian.AppendUint16(b, v)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

// EncodeBase64 returns the payload in standard base64 — the form alert
// records and the serve endpoint carry.
func (m *Map) EncodeBase64() string {
	return base64.StdEncoding.EncodeToString(m.Encode())
}

type cursor struct {
	b   []byte
	off int
}

func (c *cursor) take(n int) ([]byte, error) {
	if len(c.b)-c.off < n {
		return nil, fmt.Errorf("skymap: truncated payload at offset %d", c.off)
	}
	out := c.b[c.off : c.off+n]
	c.off += n
	return out, nil
}

func (c *cursor) u16() (uint16, error) {
	b, err := c.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (c *cursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (c *cursor) f32() (float32, error) {
	v, err := c.u32()
	return math.Float32frombits(v), err
}

func finite32(v float32) bool {
	f := float64(v)
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}

// maxAreaDeg2 bounds a credible area claim: the whole visible hemisphere,
// with slack for float32 rounding.
const maxAreaDeg2 = 2*math.Pi*deg2PerSr + 1

// Decode parses and fully validates a payload. Every accepted payload
// re-encodes to exactly the input bytes; anything else — bad magic,
// version, reserved bits, non-finite or out-of-range header fields, counts
// inconsistent with the grid geometry, CRC mismatch, truncation, trailing
// garbage — is an error.
func Decode(b []byte) (*Map, error) {
	if len(b) < headerSize+4 {
		return nil, fmt.Errorf("skymap: payload too short (%d bytes)", len(b))
	}
	if string(b[:4]) != Magic {
		return nil, fmt.Errorf("skymap: bad magic %q", b[:4])
	}
	body, crc := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(body); got != crc {
		return nil, fmt.Errorf("skymap: CRC mismatch (got %08x, want %08x)", got, crc)
	}
	c := &cursor{b: body, off: 4}
	version, _ := c.u16()
	if version != Version {
		return nil, fmt.Errorf("skymap: unsupported version %d", version)
	}
	flags, _ := c.u16()
	if flags != 0 {
		return nil, fmt.Errorf("skymap: reserved flags %#x set", flags)
	}
	coarseBands, _ := c.u16()
	refineFactor, _ := c.u16()
	if coarseBands < 2 || coarseBands > MaxCoarseBands {
		return nil, fmt.Errorf("skymap: coarseBands %d out of range [2, %d]", coarseBands, MaxCoarseBands)
	}
	if refineFactor < 1 || refineFactor > MaxRefineFactor {
		return nil, fmt.Errorf("skymap: refineFactor %d out of range [1, %d]", refineFactor, MaxRefineFactor)
	}
	m := &Map{CoarseBands: int(coarseBands), RefineFactor: int(refineFactor)}
	var err error
	if m.Temperature, err = c.f32(); err != nil {
		return nil, err
	}
	if !finite32(m.Temperature) || m.Temperature <= 0 {
		return nil, fmt.Errorf("skymap: invalid temperature %v", m.Temperature)
	}
	if m.LogFloor, err = c.f32(); err != nil {
		return nil, err
	}
	if !finite32(m.LogFloor) || m.LogFloor >= 0 {
		return nil, fmt.Errorf("skymap: invalid log floor %v", m.LogFloor)
	}
	var norm2 float64
	for i := range m.PeakDir {
		if m.PeakDir[i], err = c.f32(); err != nil {
			return nil, err
		}
		if !finite32(m.PeakDir[i]) {
			return nil, fmt.Errorf("skymap: non-finite peak direction")
		}
		norm2 += float64(m.PeakDir[i]) * float64(m.PeakDir[i])
	}
	if norm2 < 0.99 || norm2 > 1.01 {
		return nil, fmt.Errorf("skymap: peak direction not a unit vector (|d|² = %v)", norm2)
	}
	for _, f := range []struct {
		dst    *float32
		name   string
		lo, hi float64
	}{
		{&m.Thr68, "thr68", float64(m.LogFloor), 0},
		{&m.Thr90, "thr90", float64(m.LogFloor), 0},
		{&m.Area68, "area68", 0, maxAreaDeg2},
		{&m.Area90, "area90", 0, maxAreaDeg2},
	} {
		if *f.dst, err = c.f32(); err != nil {
			return nil, err
		}
		if !finite32(*f.dst) || float64(*f.dst) < f.lo || float64(*f.dst) > f.hi {
			return nil, fmt.Errorf("skymap: %s %v out of range [%v, %v]", f.name, *f.dst, f.lo, f.hi)
		}
	}
	nCoarse, _ := c.u32()
	nTiles, _ := c.u32()
	coarse := sky.NewGrid(m.CoarseBands)
	if int(nCoarse) != coarse.NumPixels() {
		return nil, fmt.Errorf("skymap: coarse count %d, grid has %d pixels", nCoarse, coarse.NumPixels())
	}
	if int(nTiles) > coarse.NumPixels() {
		return nil, fmt.Errorf("skymap: %d tiles for %d coarse pixels", nTiles, coarse.NumPixels())
	}
	raw, err := c.take(int(nCoarse))
	if err != nil {
		return nil, err
	}
	m.Coarse = append([]uint8(nil), raw...)
	m.geometry = geometryOf(m.CoarseBands, m.RefineFactor)
	members := m.members
	prev := -1
	for t := 0; t < int(nTiles); t++ {
		ci, err := c.u32()
		if err != nil {
			return nil, err
		}
		if int(ci) <= prev || int(ci) >= coarse.NumPixels() {
			return nil, fmt.Errorf("skymap: tile coarse index %d out of order or range", ci)
		}
		prev = int(ci)
		nFine, err := c.u16()
		if err != nil {
			return nil, err
		}
		if int(nFine) != len(members[int(ci)]) {
			return nil, fmt.Errorf("skymap: tile %d has %d fine values, geometry says %d", ci, nFine, len(members[int(ci)]))
		}
		tile := Tile{Coarse: int(ci), Values: make([]uint16, nFine)}
		for k := range tile.Values {
			if tile.Values[k], err = c.u16(); err != nil {
				return nil, err
			}
		}
		m.Tiles = append(m.Tiles, tile)
	}
	if c.off != len(body) {
		return nil, fmt.Errorf("skymap: %d trailing bytes", len(body)-c.off)
	}
	m.finish()
	return m, nil
}

// DecodeBase64 decodes a standard-base64 payload string.
func DecodeBase64(s string) (*Map, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("skymap: bad base64: %v", err)
	}
	return Decode(raw)
}
