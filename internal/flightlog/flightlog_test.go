package flightlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// appendAll opens a journal in dir, appends every payload, and closes it.
func appendAll(t *testing.T, opts Options, payloads [][]byte) {
	t.Helper()
	j, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll collects every payload in dir.
func replayAll(t *testing.T, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	if err := Replay(dir, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("record-%04d:%s", i, bytes.Repeat([]byte{byte(i)}, i%37)))
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testPayloads(200)
	appendAll(t, Options{Dir: dir}, want)
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch: %q != %q", i, got[i], want[i])
		}
	}
}

func TestEmptyAndZeroLengthRecords(t *testing.T) {
	dir := t.TempDir()
	if n, err := Count(dir); err != nil || n != 0 {
		t.Fatalf("empty dir Count = %d, %v", n, err)
	}
	appendAll(t, Options{Dir: dir}, [][]byte{{}, []byte("x"), {}})
	got := replayAll(t, dir)
	if len(got) != 3 || len(got[0]) != 0 || string(got[1]) != "x" || len(got[2]) != 0 {
		t.Fatalf("zero-length records did not round-trip: %q", got)
	}
}

func TestSegmentRotationBySize(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record (~47 bytes framed) rotates quickly.
	appendAll(t, Options{Dir: dir, SegmentBytes: 128}, testPayloads(50))
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) < 5 {
		t.Fatalf("expected many segments at 128-byte rotation, got %d", len(seqs))
	}
	if got := replayAll(t, dir); len(got) != 50 {
		t.Fatalf("rotation lost records: %d/50", len(got))
	}
}

func TestSegmentRotationByAge(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	j, err := Open(Options{Dir: dir, SegmentMaxAge: time.Minute, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if err := j.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	seqs, _ := listSegments(dir)
	if len(seqs) != 2 {
		t.Fatalf("age rotation: %d segments, want 2", len(seqs))
	}
	if got := replayAll(t, dir); len(got) != 2 {
		t.Fatalf("age rotation lost records: %d/2", len(got))
	}
}

func TestRetentionMaxSegments(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, Options{Dir: dir, SegmentBytes: 128, MaxSegments: 3}, testPayloads(60))
	seqs, _ := listSegments(dir)
	if len(seqs) > 3 {
		t.Fatalf("retention kept %d segments, want <= 3", len(seqs))
	}
	// The survivors replay cleanly and are the newest records.
	got := replayAll(t, dir)
	if len(got) == 0 || len(got) >= 60 {
		t.Fatalf("retention replay count = %d, want partial tail", len(got))
	}
	if want := []byte(fmt.Sprintf("record-%04d", 59)); !bytes.HasPrefix(got[len(got)-1], want) {
		t.Fatalf("last surviving record = %q, want prefix %q", got[len(got)-1], want)
	}
}

func TestRetentionMaxTotalBytes(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, Options{Dir: dir, SegmentBytes: 256, MaxTotalBytes: 1024}, testPayloads(100))
	var total int64
	seqs, _ := listSegments(dir)
	for _, s := range seqs {
		fi, err := os.Stat(filepath.Join(dir, segName(s)))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	// Allow one segment of slack: retention runs before the new segment
	// opens, so the active segment can push past the bound.
	if total > 1024+512 {
		t.Fatalf("retention left %d bytes on disk, want <= ~1536", total)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncNone, SyncInterval, SyncAlways} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			appendAll(t, Options{Dir: dir, Sync: pol, SyncEveryBytes: 64}, testPayloads(20))
			if got := replayAll(t, dir); len(got) != 20 {
				t.Fatalf("%v policy lost records: %d/20", pol, len(got))
			}
		})
	}
}

// lastSegPath returns the path of the newest segment.
func lastSegPath(t *testing.T, dir string) string {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return filepath.Join(dir, segName(seqs[len(seqs)-1]))
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial-frame", func(t *testing.T, path string) {
			// Append half a frame header: length says 100, no payload.
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			var frame [frameSize]byte
			binary.LittleEndian.PutUint32(frame[0:4], 100)
			f.Write(frame[:])
			f.Close()
		}},
		{"garbage-bytes", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte{0xDE, 0xAD, 0xBE})
			f.Close()
		}},
		{"truncated-payload", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			// Cut into the last record's payload.
			if err := os.Truncate(path, fi.Size()-5); err != nil {
				t.Fatal(err)
			}
		}},
		{"corrupt-crc", func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip a bit in the last byte (inside the final payload).
			data[len(data)-1] ^= 0x80
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want := testPayloads(30)
			appendAll(t, Options{Dir: dir}, want)
			tc.tear(t, lastSegPath(t, dir))

			// Read-only replay tolerates the tear.
			got := replayAll(t, dir)
			if len(got) > 30 {
				t.Fatalf("replay invented records: %d", len(got))
			}
			// Reopen: recovery truncates, and appends resume cleanly.
			j, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if tc.name != "truncated-payload" && tc.name != "corrupt-crc" {
				if j.Stats().RecoveredTruncation == 0 {
					t.Error("recovery reported no truncation for a torn tail")
				}
				if len(got) != 30 {
					t.Errorf("pure-tail tear lost whole records: %d/30", len(got))
				}
			}
			if err := j.Append([]byte("post-crash")); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			again := replayAll(t, dir)
			if len(again) != len(got)+1 {
				t.Fatalf("after recovery+append: %d records, want %d", len(again), len(got)+1)
			}
			for i := range got {
				if !bytes.Equal(again[i], got[i]) {
					t.Fatalf("record %d changed across recovery", i)
				}
			}
			if string(again[len(again)-1]) != "post-crash" {
				t.Fatalf("post-recovery record = %q", again[len(again)-1])
			}
		})
	}
}

func TestRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	// A crash can tear the header of a freshly rotated segment.
	if err := os.WriteFile(filepath.Join(dir, segName(1)), []byte("AFL"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != 1 || string(got[0]) != "hello" {
		t.Fatalf("torn-header recovery replay = %q", got)
	}
}

func TestReplayCorruptMiddleSegmentErrors(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, Options{Dir: dir, SegmentBytes: 128}, testPayloads(40))
	seqs, _ := listSegments(dir)
	if len(seqs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(seqs))
	}
	// Corrupt a payload byte in the middle segment.
	mid := filepath.Join(dir, segName(seqs[len(seqs)/2]))
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Replay(dir, func([]byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over corrupt middle segment: %v, want ErrCorrupt", err)
	}
}

func TestReplayFnErrorAborts(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, Options{Dir: dir}, testPayloads(5))
	sentinel := errors.New("stop")
	n := 0
	err := Replay(dir, func([]byte) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || n != 3 {
		t.Fatalf("fn error: err=%v after %d records", err, n)
	}
}

func TestByteExactDeterministicEncoding(t *testing.T) {
	// The same payload sequence must produce identical journal bytes —
	// the property that makes journal shipping and dedup possible.
	payloads := testPayloads(64)
	dirs := [2]string{t.TempDir(), t.TempDir()}
	var blobs [2][]byte
	for i, dir := range dirs {
		appendAll(t, Options{Dir: dir, SegmentBytes: 512}, payloads)
		seqs, _ := listSegments(dir)
		for _, s := range seqs {
			b, err := os.ReadFile(filepath.Join(dir, segName(s)))
			if err != nil {
				t.Fatal(err)
			}
			blobs[i] = append(blobs[i], b...)
		}
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Fatal("identical append sequences produced different journal bytes")
	}
}

// TestAppendDoesNotRetainPayload overwrites every payload as soon as
// Append returns and reuses its storage for the next record, as the
// stream does with its per-event blobs. Replay must still read what was
// appended: Append copies into its own framing buffer, both the reused one
// and the one-off buffer of a record too large to keep.
func TestAppendDoesNotRetainPayload(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	store := make([]byte, 0, 2*maxKeptFrameBuf)
	var want [][]byte
	for i, n := range []int{80, 0, 300, maxKeptFrameBuf + 1, 80, maxKeptFrameBuf - frameSize, 7} {
		p := store[:n]
		for k := range p {
			p[k] = byte(i*31 + k)
		}
		want = append(want, append([]byte(nil), p...))
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
		for k := range p {
			p[k] = 0xAA
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d (%d bytes) changed after its payload was overwritten", i, len(want[i]))
		}
	}
}

func TestAppendAfterCloseAndOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Error("oversize record accepted")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
	if err := j.Append([]byte("x")); err == nil {
		t.Error("append after Close accepted")
	}
}

func TestConcurrentAppend(t *testing.T) {
	// Run under -race in CI. Concurrent appenders interleave but every
	// record survives intact.
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, perG = 8, 50
	done := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			for i := 0; i < perG; i++ {
				if err := j.Append([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < goroutines; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := Count(dir); err != nil || n != goroutines*perG {
		t.Fatalf("Count = %d, %v; want %d", n, err, goroutines*perG)
	}
}

func TestStats(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := j.Append([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Stats()
	if st.Appended != 10 || st.Segments != 1 || st.ActiveSeq != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if want := int64(headerSize + 10*(frameSize+10)); st.ActiveBytes != want || st.TotalBytes != want {
		t.Errorf("Stats bytes = %+v, want %d", st, want)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
