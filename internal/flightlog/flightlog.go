// Package flightlog is a durable append-only journal for the flight data
// path: raw photon events (or any opaque payload) are framed into
// CRC32-checked, length-prefixed records and appended to a sequence of
// segment files. The design goals are the ones a balloon flight imposes:
//
//   - crash safety: power can vanish mid-write, so Open scans the last
//     segment and truncates a torn tail back to the last valid record;
//   - bounded storage: segments rotate by size (and optionally age) and a
//     retention policy deletes the oldest sealed segments;
//   - deterministic replay: the byte stream is a pure function of the
//     appended payload sequence, so replaying a recorded session feeds the
//     downstream trigger pipeline the exact events of the live run.
//
// On-disk layout (little-endian). Each segment file is
//
//	segment := magic("AFLG") version(u16) reserved(u16) record*
//	record  := length(u32) crc32(u32) payload(length bytes)
//
// where crc32 is the IEEE checksum of the payload. A record is valid iff
// its full frame is present and the checksum matches; the first invalid
// frame in the final segment marks the durable end of the journal.
package flightlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"
)

// segment framing constants.
var segMagic = [4]byte{'A', 'F', 'L', 'G'}

const (
	// Version of the on-disk segment format.
	Version uint16 = 1
	// headerSize is the fixed segment-file header length.
	headerSize = 8
	// frameSize is the per-record frame overhead (length + crc).
	frameSize = 8
	// MaxRecordBytes bounds a single record payload; a length prefix above
	// it is treated as corruption rather than an allocation request.
	MaxRecordBytes = 1 << 26 // 64 MiB
	// maxKeptFrameBuf bounds the framing buffer a Journal keeps between
	// appends: per-event records and their batches (a full stream queue of
	// events is a few hundred KiB) reuse it, while a whole-exposure record
	// grows a one-off buffer instead of pinning megabytes.
	maxKeptFrameBuf = 1 << 20
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncNone never fsyncs explicitly; durability is whatever the OS
	// page cache provides. Fastest, loses the tail on power failure.
	SyncNone SyncPolicy = iota
	// SyncInterval fsyncs after every Options.SyncEveryBytes of appended
	// payload — the bounded-loss middle ground a flight recorder runs.
	SyncInterval
	// SyncAlways fsyncs after every record. Slowest, loses nothing.
	SyncAlways
)

// String implements fmt.Stringer for reports and benchmarks.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures a Journal. The zero value of every field means the
// documented default.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default 8 MiB).
	SegmentBytes int64
	// SegmentMaxAge rotates a non-empty segment once it has been open this
	// long (0 = no age-based rotation). Age rotation exists so a quiet
	// period still seals (and can ship/compact) recent data.
	SegmentMaxAge time.Duration
	// Sync is the fsync policy (default SyncNone).
	Sync SyncPolicy
	// SyncEveryBytes is the SyncInterval threshold (default 1 MiB).
	SyncEveryBytes int64
	// MaxSegments keeps at most this many segment files, deleting the
	// oldest sealed ones at rotation (0 = keep all).
	MaxSegments int
	// MaxTotalBytes bounds the journal's total on-disk size the same way
	// (0 = unlimited). The active segment is never deleted.
	MaxTotalBytes int64
	// Now supplies the clock for age rotation (nil = time.Now). Tests
	// inject a fake clock; replay never consults it.
	Now func() time.Time
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.SegmentBytes <= 0 {
		out.SegmentBytes = 8 << 20
	}
	if out.SyncEveryBytes <= 0 {
		out.SyncEveryBytes = 1 << 20
	}
	if out.Now == nil {
		out.Now = time.Now
	}
	return out
}

// Stats reports a journal's current shape.
type Stats struct {
	// Segments is the number of live segment files.
	Segments int
	// ActiveSeq is the sequence number of the segment being appended to.
	ActiveSeq uint64
	// ActiveBytes is the size of the active segment.
	ActiveBytes int64
	// TotalBytes is the on-disk size across all live segments.
	TotalBytes int64
	// Appended counts records appended through this handle.
	Appended int64
	// Writes counts the write(2) calls that carried those records: one per
	// Append, fewer than Appended for batches.
	Writes int64
	// Syncs counts the fsyncs this handle issued: by policy, at rotation,
	// and from Sync and Close.
	Syncs int64
	// RecoveredTruncation reports how many bytes Open cut from a torn
	// tail (0 for a clean journal).
	RecoveredTruncation int64
}

// Journal is an open, appendable flight journal. All methods are safe for
// concurrent use; records from concurrent Append calls are serialized in
// an unspecified but valid order.
type Journal struct {
	mu        sync.Mutex
	opts      Options
	f         *os.File
	seq       uint64 // active segment sequence number
	segBytes  int64  // bytes written to the active segment
	segBorn   time.Time
	unsynced  int64
	appended  int64
	writes    int64
	syncs     int64
	recovered int64
	closed    bool
	buf       []byte // framed records of the batch being appended
}

// Dir returns the journal's directory, as passed to Open.
func (j *Journal) Dir() string { return j.opts.Dir }

// segName formats the file name of segment seq.
func segName(seq uint64) string { return fmt.Sprintf("journal-%08d.flog", seq) }

// listSegments returns the live segment sequence numbers in dir, sorted.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		var seq uint64
		if n, err := fmt.Sscanf(e.Name(), "journal-%d.flog", &seq); err == nil && n == 1 &&
			e.Name() == segName(seq) {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// Open creates or resumes the journal in opts.Dir. Resuming scans the last
// segment, truncates anything after the final valid record (the torn tail
// of a crash mid-append), and appends after it.
func Open(opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("flightlog: Options.Dir required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	seqs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{opts: opts, segBorn: opts.Now()}
	if len(seqs) == 0 {
		if err := j.openSegment(1); err != nil {
			return nil, err
		}
		return j, nil
	}

	// Recover the last segment: find the valid prefix and truncate to it.
	last := seqs[len(seqs)-1]
	path := filepath.Join(opts.Dir, segName(last))
	valid, _, err := scanSegment(path, nil)
	if err != nil {
		return nil, fmt.Errorf("flightlog: recovering %s: %w", segName(last), err)
	}
	size := int64(0)
	if fi, err := os.Stat(path); err == nil {
		size = fi.Size()
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if valid < size {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, err
		}
		j.recovered = size - valid
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	j.f, j.seq, j.segBytes = f, last, valid
	if j.segBytes == 0 {
		// Header was torn too; rewrite it so the segment is well-formed.
		if err := j.writeHeader(); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// openSegment creates segment seq and makes it active.
func (j *Journal) openSegment(seq uint64) error {
	path := filepath.Join(j.opts.Dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	j.f, j.seq, j.segBytes = f, seq, 0
	j.segBorn = j.opts.Now()
	return j.writeHeader()
}

// writeHeader writes the segment header at the current (empty) position.
func (j *Journal) writeHeader() error {
	var hdr [headerSize]byte
	copy(hdr[:4], segMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	if _, err := j.f.Write(hdr[:]); err != nil {
		return err
	}
	j.segBytes = headerSize
	return nil
}

// Append frames payload into one record and appends it to the active
// segment, rotating and applying retention first if the segment is full.
// It is the one-record case of AppendBatch.
func (j *Journal) Append(payload []byte) error {
	return j.AppendBatch([][]byte{payload})
}

// AppendBatch appends each payload as one record, in order. The segment
// files, rotations, retention and fsyncs are exactly those of one Append
// per payload: the batch only saves system calls. Records are framed into
// one buffer that is written when the batch ends, before a rotation, and
// before an fsync the sync policy calls for — so a batch costs one
// write(2) per segment it touches (plus one per fsync point), and every
// fsync covers the same records it would after single appends. A payload
// over MaxRecordBytes fails the whole batch before anything is written.
// AppendBatch does not retain payloads.
func (j *Journal) AppendBatch(payloads [][]byte) error {
	size := 0
	for _, p := range payloads {
		if len(p) > MaxRecordBytes {
			return fmt.Errorf("flightlog: record of %d bytes exceeds MaxRecordBytes", len(p))
		}
		size += frameSize + len(p)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("flightlog: append after Close")
	}
	// buf holds the framed records not yet written, pending how many.
	buf, pending := slices.Grow(j.buf[:0], min(size, maxKeptFrameBuf)), int64(0)
	flush := func() error {
		if pending == 0 {
			return nil
		}
		if _, err := j.f.Write(buf); err != nil {
			return err
		}
		j.segBytes += int64(len(buf))
		j.appended += pending
		j.writes++
		buf, pending = buf[:0], 0
		return nil
	}
	err := func() error {
		for _, p := range payloads {
			if j.segBytes+int64(len(buf)) >= j.opts.SegmentBytes ||
				(j.opts.SegmentMaxAge > 0 && j.segBytes+int64(len(buf)) > headerSize &&
					j.opts.Now().Sub(j.segBorn) >= j.opts.SegmentMaxAge) {
				if err := flush(); err != nil {
					return err
				}
				if err := j.rotateLocked(); err != nil {
					return err
				}
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p)))
			buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(p))
			buf = append(buf, p...)
			pending++
			n := int64(frameSize + len(p))
			switch j.opts.Sync {
			case SyncAlways:
			case SyncInterval:
				if j.unsynced += n; j.unsynced < j.opts.SyncEveryBytes {
					continue
				}
			default:
				continue
			}
			if err := flush(); err != nil {
				return err
			}
			if err := j.syncLocked(); err != nil {
				return err
			}
		}
		return flush()
	}()
	if cap(buf) <= maxKeptFrameBuf {
		j.buf = buf
	}
	return err
}

// syncLocked fsyncs the active segment. Caller holds j.mu.
func (j *Journal) syncLocked() error {
	j.unsynced = 0
	j.syncs++
	return j.f.Sync()
}

// rotateLocked seals the active segment, applies retention, and opens the
// next one. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return err
	}
	if err := j.applyRetentionLocked(); err != nil {
		return err
	}
	return j.openSegment(j.seq + 1)
}

// applyRetentionLocked deletes the oldest sealed segments until the
// MaxSegments / MaxTotalBytes limits hold (counting the segment about to
// be created).
func (j *Journal) applyRetentionLocked() error {
	if j.opts.MaxSegments <= 0 && j.opts.MaxTotalBytes <= 0 {
		return nil
	}
	seqs, err := listSegments(j.opts.Dir)
	if err != nil {
		return err
	}
	var total int64
	sizes := make(map[uint64]int64, len(seqs))
	for _, s := range seqs {
		fi, err := os.Stat(filepath.Join(j.opts.Dir, segName(s)))
		if err != nil {
			return err
		}
		sizes[s] = fi.Size()
		total += fi.Size()
	}
	for len(seqs) > 1 &&
		((j.opts.MaxSegments > 0 && len(seqs)+1 > j.opts.MaxSegments) ||
			(j.opts.MaxTotalBytes > 0 && total > j.opts.MaxTotalBytes)) {
		oldest := seqs[0]
		if err := os.Remove(filepath.Join(j.opts.Dir, segName(oldest))); err != nil {
			return err
		}
		total -= sizes[oldest]
		seqs = seqs[1:]
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	return j.syncLocked()
}

// Close syncs and closes the active segment. The journal can be reopened
// with Open; Append after Close errors.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.syncLocked(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// Stats returns the journal's current shape.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		ActiveSeq:           j.seq,
		ActiveBytes:         j.segBytes,
		Appended:            j.appended,
		Writes:              j.writes,
		Syncs:               j.syncs,
		RecoveredTruncation: j.recovered,
	}
	seqs, err := listSegments(j.opts.Dir)
	if err != nil {
		return st
	}
	st.Segments = len(seqs)
	for _, s := range seqs {
		if fi, err := os.Stat(filepath.Join(j.opts.Dir, segName(s))); err == nil {
			st.TotalBytes += fi.Size()
		}
	}
	return st
}

// scanSegment reads one segment file, calling fn (when non-nil) with each
// valid payload, and returns the byte offset of the end of the valid
// prefix. A missing/short/corrupt header yields validBytes 0. Scanning
// stops without error at the first torn or corrupt frame — distinguishing
// "crash tail" from "bit rot" is the caller's policy.
func scanSegment(path string, fn func(payload []byte) error) (validBytes int64, records int, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, err
	}
	return scanSegmentBytes(data, fn)
}

// validHeader reports whether data starts with a well-formed segment header.
func validHeader(data []byte) bool {
	return len(data) >= headerSize && [4]byte(data[0:4]) == segMagic &&
		binary.LittleEndian.Uint16(data[4:6]) == Version
}

// scanSegmentBytes is scanSegment over an in-memory segment image.
func scanSegmentBytes(data []byte, fn func(payload []byte) error) (validBytes int64, records int, err error) {
	if !validHeader(data) {
		return 0, 0, nil
	}
	off := int64(headerSize)
	for {
		rest := data[off:]
		if len(rest) < frameSize {
			return off, records, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest[0:4]))
		crc := binary.LittleEndian.Uint32(rest[4:8])
		if n > MaxRecordBytes || int64(len(rest)) < frameSize+n {
			return off, records, nil
		}
		payload := rest[frameSize : frameSize+n]
		if crc32.ChecksumIEEE(payload) != crc {
			return off, records, nil
		}
		if fn != nil {
			if err := fn(payload); err != nil {
				return off, records, err
			}
		}
		off += frameSize + n
		records++
	}
}

// ErrCorrupt reports CRC/framing corruption strictly before the journal's
// durable end (i.e. not a recoverable torn tail).
var ErrCorrupt = errors.New("flightlog: corrupt record before journal end")

// ReplayStats reports what a replay actually read — in particular whether
// the journal ended in a torn tail, so consumers (the multi-detector merge,
// the HTTP replay endpoint) can surface the truncation instead of silently
// treating a crash-damaged source as complete.
type ReplayStats struct {
	// Records is the number of valid records delivered.
	Records int
	// TruncatedBytes counts bytes after the last valid record of the final
	// segment (0 for a journal that ends cleanly on a record boundary).
	TruncatedBytes int64
}

// Replay reads every record of the journal in dir, in append order,
// calling fn with each payload. The payload slice is only valid during the
// call. A torn tail in the final segment is tolerated (the scan stops
// there, exactly as Open would truncate); an invalid prefix in any earlier
// segment returns ErrCorrupt, since records after it are unreachable in a
// pure append-order replay. fn errors abort the replay.
func Replay(dir string, fn func(payload []byte) error) error {
	_, err := ReplayWithStats(dir, fn)
	return err
}

// ReplayWithStats is Replay, additionally reporting how many records were
// delivered and how many trailing bytes a torn tail cost. The stats are
// valid even when the replay aborts with an error.
func ReplayWithStats(dir string, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	seqs, err := listSegments(dir)
	if err != nil {
		return st, err
	}
	for i, seq := range seqs {
		path := filepath.Join(dir, segName(seq))
		valid, records, err := scanSegment(path, fn)
		st.Records += records
		if err != nil {
			return st, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return st, err
		}
		if valid < fi.Size() {
			if i < len(seqs)-1 {
				return st, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, segName(seq), valid)
			}
			st.TruncatedBytes = fi.Size() - valid
		}
	}
	return st, nil
}

// Iter streams a journal's records pull-style: one segment is held in
// memory at a time, so memory use is bounded by SegmentBytes no matter how
// long the journal is. The k-way merge uses one Iter per source so it can
// interleave sources by event time instead of draining each journal whole.
type Iter struct {
	dir     string
	seqs    []uint64
	seg     int      // next segment index to load
	pending [][]byte // remaining records of the loaded segment
	stats   ReplayStats
	err     error
}

// NewIter opens a record iterator over the journal in dir.
func NewIter(dir string) (*Iter, error) {
	seqs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	return &Iter{dir: dir, seqs: seqs}, nil
}

// Next returns the next record payload (owned by the caller), io.EOF at the
// durable end of the journal, or ErrCorrupt for damage strictly before it.
// A torn final-segment tail ends the iteration cleanly and is reported in
// Stats, mirroring Replay.
func (it *Iter) Next() ([]byte, error) {
	for {
		if it.err != nil {
			return nil, it.err
		}
		if len(it.pending) > 0 {
			p := it.pending[0]
			it.pending = it.pending[1:]
			it.stats.Records++
			return p, nil
		}
		if it.seg >= len(it.seqs) {
			it.err = io.EOF
			return nil, io.EOF
		}
		path := filepath.Join(it.dir, segName(it.seqs[it.seg]))
		it.seg++
		valid, _, err := scanSegment(path, func(payload []byte) error {
			it.pending = append(it.pending, append([]byte(nil), payload...))
			return nil
		})
		if err != nil {
			it.err = err
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			it.err = err
			return nil, err
		}
		if valid < fi.Size() {
			if it.seg < len(it.seqs) {
				it.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, filepath.Base(path), valid)
				// Records scanned from the damaged segment are unreachable in
				// append order; drop them.
				it.pending = nil
				return nil, it.err
			}
			it.stats.TruncatedBytes = fi.Size() - valid
		}
	}
}

// Stats reports what the iterator has read so far; TruncatedBytes is final
// once Next has returned io.EOF.
func (it *Iter) Stats() ReplayStats { return it.stats }

// ScanStream parses data as the concatenation of one or more journal
// segment files — the body format of the adaptserve replay endpoint, where
// a client ships `cat journal-*.flog` — calling fn with every valid record
// payload in order. A torn tail after the last valid record is tolerated
// and counted; bytes at a segment boundary that are neither a segment
// header nor a valid frame end the scan the same way. Data that does not
// begin with a segment header is an error, not a truncation.
func ScanStream(data []byte, fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	if !validHeader(data) {
		return st, errors.New("flightlog: body is not a flight-journal segment stream")
	}
	off := int64(0)
	for off < int64(len(data)) {
		if !validHeader(data[off:]) {
			st.TruncatedBytes = int64(len(data)) - off
			return st, nil
		}
		valid, records, err := scanSegmentBytes(data[off:], fn)
		st.Records += records
		if err != nil {
			return st, err
		}
		// valid is always ≥ headerSize here (the header was just checked), so
		// the scan makes progress every iteration; the next loop turn either
		// finds another segment header at off or counts the rest as tail.
		off += valid
	}
	return st, nil
}

// Count returns the number of valid records in the journal at dir.
func Count(dir string) (int, error) {
	n := 0
	err := Replay(dir, func([]byte) error { n++; return nil })
	return n, err
}
