package downlink

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/evio"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// quietRecords simulates durSec seconds of quiet-sky background through the
// default detector and marshals each admitted event as one evio journal
// record — the exact shape internal/stream appends during flight.
func quietRecords(t testing.TB, seed uint64, durSec float64) [][]byte {
	t.Helper()
	det := detector.DefaultConfig()
	bg := background.DefaultModel()
	events := bg.Simulate(&det, durSec, xrand.New(seed))
	if len(events) == 0 {
		t.Fatal("background simulation produced no events")
	}
	records := make([][]byte, 0, len(events))
	for _, ev := range events {
		rec, err := evio.Marshal([]*detector.Event{ev})
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, rec)
	}
	return records
}

func TestFrameRoundTrip(t *testing.T) {
	chunk := &Chunk{
		Class:   ClassSkyMap,
		MsgID:   7,
		Index:   2,
		Total:   5,
		Seq:     1234,
		Payload: []byte("downlink payload bytes"),
	}
	enc := chunk.EncodeFrame()
	if len(enc) != chunk.FrameSize() {
		t.Fatalf("frame size %d, FrameSize says %d", len(enc), chunk.FrameSize())
	}
	f, n, err := DecodeFrame(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("decode: %v (n=%d)", err, n)
	}
	if f.Chunk == nil || f.Ack != nil {
		t.Fatal("decoded frame is not a data frame")
	}
	got := f.Chunk
	if got.Class != chunk.Class || got.MsgID != chunk.MsgID || got.Index != chunk.Index ||
		got.Total != chunk.Total || got.Seq != chunk.Seq || !bytes.Equal(got.Payload, chunk.Payload) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, chunk)
	}

	ack := &Ack{Cum: 10, Sack: []uint32{12, 14}, Nak: []uint32{10, 11, 13}}
	aenc := ack.EncodeFrame()
	af, an, err := DecodeFrame(aenc)
	if err != nil || an != len(aenc) {
		t.Fatalf("ack decode: %v", err)
	}
	if af.Ack == nil || af.Ack.Cum != 10 || len(af.Ack.Sack) != 2 || len(af.Ack.Nak) != 3 {
		t.Fatalf("ack round trip mismatch: %+v", af.Ack)
	}
}

// TestFrameRejectsEveryBitFlip flips each byte of a valid frame in turn;
// the decoder must reject every mutant (CRC or structural check).
func TestFrameRejectsEveryBitFlip(t *testing.T) {
	enc := (&Chunk{Class: ClassAlert, Total: 1, Seq: 3, Payload: []byte{1, 2, 3}}).EncodeFrame()
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x5A
		if _, _, err := DecodeFrame(mut); err == nil {
			t.Fatalf("byte %d flip accepted", i)
		}
	}
	// Truncation at every length must also fail, never panic.
	for n := 0; n < len(enc); n++ {
		if _, _, err := DecodeFrame(enc[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
}

func TestScanFramesResyncs(t *testing.T) {
	var stream []byte
	want := 3
	for i := 0; i < want; i++ {
		c := &Chunk{Class: ClassJournal, MsgID: uint32(i), Total: 1, Seq: uint32(i),
			Payload: bytes.Repeat([]byte{byte(i)}, 40)}
		if i == 1 {
			stream = append(stream, []byte("garbage!ADLKnoise")...)
		}
		stream = append(stream, c.EncodeFrame()...)
	}
	frames, skipped := ScanFrames(stream, func(*Frame) {})
	if frames != want {
		t.Fatalf("recovered %d frames, want %d", frames, want)
	}
	if skipped == 0 {
		t.Fatal("resync reported no skipped bytes")
	}
}

func TestCodecRoundTripBitwise(t *testing.T) {
	records := quietRecords(t, 3, 2.0)
	// Mix in non-canonical records: raw garbage, an empty record, and a
	// truncated evio blob — the raw fallback must keep all of them bitwise.
	records = append(records, []byte("not evio at all"), []byte{}, records[0][:len(records[0])-3])
	// The empty batch round-trips too, although its body is nothing but
	// stream headers.
	for _, batch := range [][][]byte{records, nil} {
		for _, opts := range []CodecOptions{{}, {NoFlate: true}} {
			enc, err := EncodeRecords(batch, opts)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := DecodeRecords(enc)
			if err != nil {
				t.Fatalf("%d records, opts %+v: %v", len(batch), opts, err)
			}
			if len(dec) != len(batch) {
				t.Fatalf("opts %+v: %d records, want %d", opts, len(dec), len(batch))
			}
			for i := range batch {
				if !bytes.Equal(dec[i], batch[i]) {
					t.Fatalf("opts %+v: record %d differs after round trip", opts, i)
				}
			}
		}
	}
}

// TestCodecCompressionRatio pins the acceptance floor: the delta+varint+
// deflate codec must beat 2× on quiet-sky journal segments.
func TestCodecCompressionRatio(t *testing.T) {
	records := quietRecords(t, 5, 4.0)
	raw := 0
	for _, r := range records {
		raw += len(r)
	}
	enc, err := EncodeRecords(records, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(raw) / float64(len(enc))
	t.Logf("codec: %d records, %d raw bytes -> %d encoded (%.2fx)", len(records), raw, len(enc), ratio)
	if ratio < 2.0 {
		t.Fatalf("compression ratio %.2fx below the 2x floor", ratio)
	}
	noflate, err := EncodeRecords(records, CodecOptions{NoFlate: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("codec (delta only): %d bytes (%.2fx)", len(noflate), float64(raw)/float64(len(noflate)))
}

func TestCodecDeterministic(t *testing.T) {
	records := quietRecords(t, 9, 1.0)
	a, err := EncodeRecords(records, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeRecords(records, CodecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("codec output differs between identical encodes")
	}
}

// TestCodecPooledDeflateMatchesFresh encodes and decodes batches of
// different shapes in turn, so each reuses deflate state another batch
// left behind, and checks every encoding against a fresh flate.NewWriter
// over the same preconditioned body.
func TestCodecPooledDeflateMatchesFresh(t *testing.T) {
	batches := [][][]byte{quietRecords(t, 9, 0.5), {[]byte("not evio")}, quietRecords(t, 10, 0.2)}
	for round := 0; round < 2; round++ {
		for i, records := range batches {
			plain, err := EncodeRecords(records, CodecOptions{NoFlate: true})
			if err != nil {
				t.Fatal(err)
			}
			_, n := binary.Uvarint(plain[8:])
			var zb bytes.Buffer
			zw, err := flate.NewWriter(&zb, flate.DefaultCompression)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := zw.Write(plain[8+n:]); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			want := append(append([]byte(nil), plain[:8+n]...), zb.Bytes()...)
			want[6] |= codecFlagFlate

			got, err := EncodeRecords(records, CodecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d batch %d: pooled deflate output differs from a fresh writer's", round, i)
			}
			back, err := DecodeRecords(got)
			if err != nil || len(back) != len(records) {
				t.Fatalf("round %d batch %d: decoded %d of %d records (%v)", round, i, len(back), len(records), err)
			}
			for k := range records {
				if !bytes.Equal(back[k], records[k]) {
					t.Fatalf("round %d batch %d: record %d not reproduced", round, i, k)
				}
			}
		}
	}
}

func TestCodecRejectsHostileInput(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("ADLC"),
		append([]byte("ADLC\x01\x00\x00\x00"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01), // huge count
		append([]byte("ADLC\x01\x00\x02\x00"), 0x01),                                                       // reserved flag
		append([]byte("ADLC\x02\x00\x00\x00"), 0x00),                                                       // bad version
	}
	for i, c := range cases {
		if _, err := DecodeRecords(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSchedulerStrictPriorityPreemption(t *testing.T) {
	s := NewScheduler(100, nil)
	if _, err := s.Enqueue(0, ClassJournal, make([]byte, 1000)); err != nil { // 10 chunks
		t.Fatal(err)
	}
	// Drain two journal chunks, then an alert arrives mid-message.
	for i := 0; i < 2; i++ {
		c, _, ok := s.NextChunk()
		if !ok || c.Class != ClassJournal {
			t.Fatalf("chunk %d: %+v", i, c)
		}
	}
	if _, err := s.Enqueue(1, ClassAlert, make([]byte, 150)); err != nil { // 2 chunks
		t.Fatal(err)
	}
	c, _, _ := s.NextChunk()
	if c.Class != ClassAlert || c.Index != 0 {
		t.Fatalf("alert did not preempt: got class %v chunk %d", c.Class, c.Index)
	}
	c, _, _ = s.NextChunk()
	if c.Class != ClassAlert || c.Index != 1 {
		t.Fatalf("second alert chunk: got class %v chunk %d", c.Class, c.Index)
	}
	// Journal resumes exactly where it was preempted.
	c, _, _ = s.NextChunk()
	if c.Class != ClassJournal || c.Index != 2 {
		t.Fatalf("journal did not resume at chunk 2: %+v", c)
	}
	// Seqs are strictly increasing across classes.
	prev := c.Seq
	for {
		c, _, ok := s.NextChunk()
		if !ok {
			break
		}
		if c.Seq <= prev {
			t.Fatalf("seq went backwards: %d after %d", c.Seq, prev)
		}
		prev = c.Seq
	}
	if s.Pending() {
		t.Fatal("scheduler still pending after drain")
	}
}

func TestSchedulerMsgIDsPerClass(t *testing.T) {
	s := NewScheduler(0, nil)
	id0, _ := s.Enqueue(0, ClassAlert, []byte("a"))
	id1, _ := s.Enqueue(0, ClassJournal, []byte("b"))
	id2, _ := s.Enqueue(0, ClassAlert, []byte("c"))
	if id0 != 0 || id1 != 0 || id2 != 1 {
		t.Fatalf("msg ids = %d, %d, %d; want 0, 0, 1", id0, id1, id2)
	}
}

// sessionTraffic is a reproducible mixed-class payload set.
func sessionTraffic(seed uint64) map[Class][][]byte {
	rng := xrand.New(seed)
	mk := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return b
	}
	return map[Class][][]byte{
		ClassAlert:     {mk(300), mk(500)},
		ClassSkyMap:    {mk(4000)},
		ClassScorecard: {mk(900)},
		ClassJournal:   {mk(9000), mk(7000), mk(11000)},
	}
}

// runSession pushes traffic through one session and returns the delivered
// payloads per class plus the final stats.
func runSession(t *testing.T, cfg Config, traffic map[Class][][]byte) (map[Class][][]byte, *Stats) {
	t.Helper()
	got := make(map[Class][][]byte)
	cfg.OnMessage = func(class Class, msgID uint32, payload []byte, _ float64) {
		if int(msgID) != len(got[class]) {
			t.Fatalf("class %v delivered msg %d out of order (have %d)", class, msgID, len(got[class]))
		}
		got[class] = append(got[class], payload)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := Class(0); c < NumClasses; c++ {
		for _, p := range traffic[c] {
			if err := s.Enqueue(c, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !s.Flush(3600) {
		t.Fatalf("session did not drain: %+v", s.Stats())
	}
	return got, s.Stats()
}

func checkDelivered(t *testing.T, want, got map[Class][][]byte) {
	t.Helper()
	for c := Class(0); c < NumClasses; c++ {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("class %v: delivered %d messages, want %d", c, len(got[c]), len(want[c]))
		}
		for i := range want[c] {
			if !bytes.Equal(got[c][i], want[c][i]) {
				t.Fatalf("class %v message %d differs after downlink", c, i)
			}
		}
	}
}

func TestSessionPerfectLink(t *testing.T) {
	traffic := sessionTraffic(1)
	got, st := runSession(t, Config{BudgetBytesPerSec: 4096, Seed: 1}, traffic)
	checkDelivered(t, traffic, got)
	if st.Retransmits != 0 || st.FramesDropped != 0 {
		t.Fatalf("perfect link retransmitted: %+v", st)
	}
	if st.Ground.Duplicates != 0 {
		t.Fatalf("perfect link produced duplicates: %+v", st.Ground)
	}
	if st.Latency[ClassAlert] == nil || st.Latency[ClassAlert].Count != 2 {
		t.Fatalf("alert latency summary missing: %+v", st.Latency[ClassAlert])
	}
}

// TestSessionLossyBitwise is the tentpole property: under 10% drop plus
// reorder plus corruption, everything still arrives bitwise-intact, with a
// nonzero retransmit count proving the ARQ path actually ran.
func TestSessionLossyBitwise(t *testing.T) {
	loss := LossProfile{DropProb: 0.10, CorruptProb: 0.02, ReorderProb: 0.25, ReorderDelaySec: 0.5}
	traffic := sessionTraffic(2)
	got, st := runSession(t, Config{BudgetBytesPerSec: 8192, Seed: 99, Loss: loss}, traffic)
	checkDelivered(t, traffic, got)
	if st.Retransmits == 0 {
		t.Fatal("lossy link needed no retransmits — emulator not engaged")
	}
	if st.FramesDropped == 0 || st.FramesCorrupted == 0 {
		t.Fatalf("loss profile not exercised: %+v", st)
	}
	if st.Ground.CorruptFrames == 0 {
		t.Fatal("ground saw no corrupt frames despite CorruptProb")
	}
}

// TestSessionDeterministic runs the identical lossy session twice and
// requires byte-identical stats — the chaos scorecard depends on it.
func TestSessionDeterministic(t *testing.T) {
	run := func() ([]byte, map[Class][][]byte) {
		loss := LossProfile{DropProb: 0.15, CorruptProb: 0.03, ReorderProb: 0.3}
		traffic := sessionTraffic(3)
		got, st := runSession(t, Config{BudgetBytesPerSec: 2048, Seed: 7, Loss: loss}, traffic)
		js, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		return js, got
	}
	js1, got1 := run()
	js2, got2 := run()
	if !bytes.Equal(js1, js2) {
		t.Fatalf("stats differ between identical runs:\n%s\n%s", js1, js2)
	}
	for c := Class(0); c < NumClasses; c++ {
		for i := range got1[c] {
			if !bytes.Equal(got1[c][i], got2[c][i]) {
				t.Fatalf("class %v message %d differs between runs", c, i)
			}
		}
	}
}

// TestAlertPreemptsBackfill saturates the journal queue on a slow link and
// requires an alert enqueued later to still arrive within the time its own
// bytes plus one in-flight chunk need — strict priority in action.
func TestAlertPreemptsBackfill(t *testing.T) {
	var alertAt float64 = -1
	cfg := Config{
		BudgetBytesPerSec: 1024,
		ChunkBytes:        256,
		Seed:              11,
		OnMessage: func(class Class, _ uint32, _ []byte, tm float64) {
			if class == ClassAlert {
				alertAt = tm
			}
		},
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 100 KB of backfill: ~100 s of link time at 1 KB/s.
	for i := 0; i < 10; i++ {
		if err := s.Enqueue(ClassJournal, make([]byte, 10000)); err != nil {
			t.Fatal(err)
		}
	}
	s.Advance(5) // backfill is mid-flight
	const alertTime = 5.0
	if err := s.EnqueueAt(alertTime, ClassAlert, make([]byte, 600)); err != nil {
		t.Fatal(err)
	}
	if !s.Flush(3600) {
		t.Fatal("session did not drain")
	}
	if alertAt < 0 {
		t.Fatal("alert never delivered")
	}
	latency := alertAt - alertTime
	// Generous bound: alert bytes + framing + one full chunk already on the
	// wire + RTT + ack interval. Without preemption the alert would wait
	// ~90 s behind the backfill.
	if latency > 5 {
		t.Fatalf("alert latency %.2f s — preemption not working", latency)
	}
	st := s.Stats()
	if st.Latency[ClassAlert].MaxSec != latency {
		t.Fatalf("latency summary %.3f disagrees with observed %.3f", st.Latency[ClassAlert].MaxSec, latency)
	}
}

// TestSessionOutage severs the link mid-transfer; everything lost in the
// outage must be retransmitted after it lifts.
func TestSessionOutage(t *testing.T) {
	loss := LossProfile{Outages: []Window{{StartSec: 1, EndSec: 20}}}
	traffic := sessionTraffic(4)
	got, st := runSession(t, Config{BudgetBytesPerSec: 4096, Seed: 13, Loss: loss}, traffic)
	checkDelivered(t, traffic, got)
	if st.OutageLost == 0 {
		t.Fatal("outage swallowed no frames")
	}
	if st.Retransmits == 0 {
		t.Fatal("no retransmits after outage")
	}
}

// TestContactWindows confirms no transmission happens outside a contact
// window: with one window opening at t=50, nothing is delivered before.
func TestContactWindows(t *testing.T) {
	var firstDelivery float64 = -1
	cfg := Config{
		BudgetBytesPerSec: 65536,
		Windows:           []Window{{StartSec: 50, EndSec: 1e9}},
		Seed:              17,
		OnMessage: func(_ Class, _ uint32, _ []byte, tm float64) {
			if firstDelivery < 0 {
				firstDelivery = tm
			}
		},
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Enqueue(ClassAlert, []byte("burst!")); err != nil {
		t.Fatal(err)
	}
	if !s.Flush(3600) {
		t.Fatal("did not drain")
	}
	if firstDelivery < 50 {
		t.Fatalf("delivery at %.2f s precedes the contact window at 50 s", firstDelivery)
	}
}

func TestSessionRejectsBadConfig(t *testing.T) {
	if _, err := NewSession(Config{}); err == nil {
		t.Fatal("zero budget accepted")
	}
	if _, err := NewSession(Config{BudgetBytesPerSec: 100, Loss: LossProfile{DropProb: 1.0}}); err == nil {
		t.Fatal("certain loss accepted")
	}
	if _, err := NewSession(Config{BudgetBytesPerSec: math.Inf(1)}); err == nil {
		t.Fatal("infinite budget accepted")
	}
}

// TestSessionMetrics spot-checks the obs wiring.
func TestSessionMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	traffic := sessionTraffic(6)
	_, st := runSession(t, Config{BudgetBytesPerSec: 8192, Seed: 23,
		Loss: LossProfile{DropProb: 0.1}, Metrics: reg}, traffic)
	for c := Class(0); c < NumClasses; c++ {
		name := CtrChunksPrefix + "_" + c.String()
		if got := reg.Counter(name).Load(); got != st.ChunksByClass[c] {
			t.Errorf("%s = %d, stats say %d", name, got, st.ChunksByClass[c])
		}
	}
	if reg.Counter(CtrDropped).Load() != st.FramesDropped {
		t.Error("dropped counter disagrees with stats")
	}
	if reg.Counter(CtrDelivered).Load() == 0 {
		t.Error("delivered counter never incremented")
	}
}

// TestReassemblerAckState exercises the SACK/NAK bookkeeping directly.
func TestReassemblerAckState(t *testing.T) {
	r := NewReassembler()
	offer := func(seq uint32) {
		r.Offer(&Chunk{Class: ClassJournal, MsgID: 0, Index: 0, Total: 1, Seq: seq,
			Payload: []byte{byte(seq)}}, 0)
	}
	offer(0)
	offer(1)
	offer(3)
	offer(6)
	a := r.AckState()
	if a.Cum != 2 {
		t.Fatalf("cum = %d, want 2", a.Cum)
	}
	if fmt.Sprint(a.Sack) != "[3 6]" {
		t.Fatalf("sack = %v, want [3 6]", a.Sack)
	}
	if fmt.Sprint(a.Nak) != "[2 4 5]" {
		t.Fatalf("nak = %v, want [2 4 5]", a.Nak)
	}
	// Duplicates below and above cum are both counted, not re-delivered.
	offer(0)
	offer(3)
	if st := r.Stats(); st.Duplicates != 2 {
		t.Fatalf("duplicates = %d, want 2", st.Duplicates)
	}
}
