package flightlog

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// segmentFiles reads every segment file in dir, keyed by name.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	seqs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(seqs))
	for _, s := range seqs {
		b, err := os.ReadFile(filepath.Join(dir, segName(s)))
		if err != nil {
			t.Fatal(err)
		}
		out[segName(s)] = b
	}
	return out
}

// stepClock is a fake clock that advances by step on every reading, so
// two journals age their segments alike only if they read the clock at
// the same points of the append sequence.
func stepClock(step time.Duration) func() time.Time {
	now := time.Unix(1000, 0)
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

// TestAppendBatchMatchesSingleAppends appends one payload sequence as
// single records into one journal and in batches of several sizes into
// another, under size and age rotation, retention and every sync policy.
// The segment files, Appended and the fsync count must be identical; the
// batches must need fewer writes.
func TestAppendBatchMatchesSingleAppends(t *testing.T) {
	payloads := testPayloads(300)
	payloads[17] = nil
	payloads[150] = bytes.Repeat([]byte{0xAB}, 900) // larger than a segment
	cases := []struct {
		name string
		opts Options
	}{
		{"size-rotation", Options{SegmentBytes: 512}},
		{"age-rotation", Options{SegmentBytes: 1 << 20, SegmentMaxAge: 10 * time.Second}},
		{"retention", Options{SegmentBytes: 300, MaxSegments: 4, SegmentMaxAge: 7 * time.Second}},
		{"sync-interval", Options{SegmentBytes: 2048, Sync: SyncInterval, SyncEveryBytes: 200}},
		{"sync-always", Options{SegmentBytes: 1024, Sync: SyncAlways}},
	}
	for _, tc := range cases {
		for _, size := range []int{1, 3, 64, len(payloads)} {
			t.Run(fmt.Sprintf("%s/batch-%d", tc.name, size), func(t *testing.T) {
				run := func(batch int) (map[string][]byte, Stats) {
					opts := tc.opts
					opts.Dir = t.TempDir()
					opts.Now = stepClock(time.Second)
					j, err := Open(opts)
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(payloads); lo += batch {
						hi := min(lo+batch, len(payloads))
						if batch == 1 {
							err = j.Append(payloads[lo])
						} else {
							err = j.AppendBatch(payloads[lo:hi])
						}
						if err != nil {
							t.Fatal(err)
						}
					}
					st := j.Stats()
					if err := j.Close(); err != nil {
						t.Fatal(err)
					}
					return segmentFiles(t, opts.Dir), st
				}
				wantFiles, want := run(1)
				gotFiles, got := run(size)
				if len(gotFiles) != len(wantFiles) {
					t.Fatalf("%d segment files, single appends give %d", len(gotFiles), len(wantFiles))
				}
				for name, b := range wantFiles {
					if !bytes.Equal(gotFiles[name], b) {
						t.Fatalf("%s differs from the single-append journal", name)
					}
				}
				if got.Appended != want.Appended || got.Appended != int64(len(payloads)) {
					t.Errorf("Appended %d, single appends %d, want %d", got.Appended, want.Appended, len(payloads))
				}
				if got.Syncs != want.Syncs || got.ActiveSeq != want.ActiveSeq || got.ActiveBytes != want.ActiveBytes {
					t.Errorf("stats %+v, single appends %+v", got, want)
				}
				if want.Writes != int64(len(payloads)) {
					t.Errorf("single appends took %d writes for %d records", want.Writes, len(payloads))
				}
				// One write per segment a batch touches, plus one per fsync
				// point inside it.
				batches := (len(payloads) + size - 1) / size
				if bound := int64(batches) + int64(want.ActiveSeq) + want.Syncs; size > 1 && got.Writes > bound {
					t.Errorf("batches of %d took %d writes, want at most %d", size, got.Writes, bound)
				}
			})
		}
	}
}

// TestAppendBatchTornAtEveryByte cuts the write of one batch at every byte
// offset, as power loss mid-write(2) would, and requires recovery to keep
// exactly the records that were wholly written, then append after them.
func TestAppendBatchTornAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	before := testPayloads(3)
	for _, p := range before {
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	start := j.Stats().ActiveBytes
	batch := [][]byte{[]byte("alpha"), {}, bytes.Repeat([]byte{7}, 40), []byte("omega")}
	if err := j.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(lastSegPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	// ends[k] is the file offset just past batch record k.
	ends := make([]int, len(batch))
	off := int(start)
	for k, p := range batch {
		off += frameSize + len(p)
		ends[k] = off
	}
	if off != len(full) {
		t.Fatalf("segment is %d bytes, the batch framing says %d", len(full), off)
	}
	for cut := int(start); cut <= len(full); cut++ {
		whole, boundary := 0, int(start)
		for whole < len(batch) && ends[whole] <= cut {
			boundary = ends[whole]
			whole++
		}
		tdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(tdir, segName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rj, err := Open(Options{Dir: tdir})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if got := rj.Stats().RecoveredTruncation; got != int64(cut-boundary) {
			t.Errorf("cut %d: recovery truncated %d bytes, want %d", cut, got, cut-boundary)
		}
		if err := rj.Append([]byte("after")); err != nil {
			t.Fatal(err)
		}
		if err := rj.Close(); err != nil {
			t.Fatal(err)
		}
		want := append(append(append([][]byte(nil), before...), batch[:whole]...), []byte("after"))
		got := replayAll(t, tdir)
		if len(got) != len(want) {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("cut %d: record %d = %q, want %q", cut, i, got[i], want[i])
			}
		}
	}
}

// TestAppendBatchRejectsOversizeBeforeWriting: one record over the limit
// fails the batch with nothing of it written.
func TestAppendBatchRejectsOversizeBeforeWriting(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([][]byte{[]byte("ok"), make([]byte, MaxRecordBytes+1)}); err == nil {
		t.Error("batch with an oversize record accepted")
	}
	if st := j.Stats(); st.Appended != 0 || st.ActiveBytes != headerSize || st.Writes != 0 {
		t.Errorf("a rejected batch left %+v", st)
	}
	if err := j.AppendBatch(nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch([][]byte{[]byte("x")}); err == nil {
		t.Error("batch after Close accepted")
	}
}
