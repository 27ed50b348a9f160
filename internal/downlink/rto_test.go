package downlink

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/xrand"
)

// rtoProfiles are the link profiles of the session tests, the end-to-end
// tests and the binaries, plus one whose acks come too late for every
// chunk so that most recovery runs through retransmission timeouts.
var rtoProfiles = []struct {
	name string
	cfg  Config
	// journal is how many bytes of journal-class backfill ride along, in
	// messages of up to 64 KiB, after sessionTraffic(seed).
	journal int
	seed    uint64
}{
	{"perfect", Config{BudgetBytesPerSec: 4096, Seed: 1}, 0, 1},
	{"lossy", Config{BudgetBytesPerSec: 8192, Seed: 99,
		Loss: LossProfile{DropProb: 0.10, CorruptProb: 0.02, ReorderProb: 0.25, ReorderDelaySec: 0.5}}, 0, 2},
	{"heavy", Config{BudgetBytesPerSec: 2048, Seed: 7,
		Loss: LossProfile{DropProb: 0.15, CorruptProb: 0.03, ReorderProb: 0.3}}, 0, 3},
	{"outage", Config{BudgetBytesPerSec: 4096, Seed: 13,
		Loss: LossProfile{Outages: []Window{{StartSec: 1, EndSec: 20}}}}, 0, 4},
	{"journal-replay", Config{BudgetBytesPerSec: 256 << 10, Seed: 1234,
		Loss: LossProfile{DropProb: 0.10, ReorderProb: 0.25, ReorderDelaySec: 0.3}}, 2 << 20, 5},
	{"flight", Config{BudgetBytesPerSec: 256 << 10, Seed: 6,
		Loss: LossProfile{DropProb: 0.05, ReorderProb: 0.1, ReorderDelaySec: 0.3}}, 2 << 20, 6},
	{"emulate", Config{BudgetBytesPerSec: 65536, Seed: 3,
		Loss: LossProfile{DropProb: 0.10, ReorderProb: 0.2, Outages: []Window{{StartSec: 10, EndSec: 12}}}}, 1 << 20, 7},
	{"late-acks", Config{BudgetBytesPerSec: 32768, Seed: 21, RetransmitWindow: 48, AckIntervalSec: 0.6, RTOSec: 0.25,
		Loss: LossProfile{DropProb: 0.2, CorruptProb: 0.05, ReorderProb: 0.4, ReorderDelaySec: 0.4}}, 256 << 10, 8},
}

// rtoDigest runs one profile and hashes its Stats and every delivered
// message: class, msgID, the delivery time's bits and the payload.
func rtoDigest(t *testing.T, cfg Config, seed uint64, journal int) string {
	t.Helper()
	h := sha256.New()
	cfg.OnMessage = func(class Class, msgID uint32, payload []byte, at float64) {
		var hdr [17]byte
		hdr[0] = byte(class)
		binary.LittleEndian.PutUint32(hdr[1:], msgID)
		binary.LittleEndian.PutUint64(hdr[5:], math.Float64bits(at))
		binary.LittleEndian.PutUint32(hdr[13:], uint32(len(payload)))
		h.Write(hdr[:])
		h.Write(payload)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	traffic := sessionTraffic(seed)
	for c := Class(0); c < NumClasses; c++ {
		for _, p := range traffic[c] {
			if err := s.Enqueue(c, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := xrand.New(seed ^ 0x5eed)
	for left := journal; left > 0; left -= 64 << 10 {
		p := make([]byte, min(left, 64<<10))
		for i := range p {
			p[i] = byte(rng.IntN(256))
		}
		if err := s.EnqueueAt(s.Now()+0.5, ClassJournal, p); err != nil {
			t.Fatal(err)
		}
	}
	if !s.Flush(1e6) {
		t.Fatalf("session did not drain: %+v", s.Stats())
	}
	js, err := json.Marshal(s.Stats())
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	return hex.EncodeToString(h.Sum(nil))
}

// TestSessionRTOGolden pins each profile's Stats and delivered messages to
// digests recorded when nextRTO and expireRTO scanned every outstanding
// chunk on each step. The timeout heap must give the same session, event
// for event.
func TestSessionRTOGolden(t *testing.T) {
	want := map[string]string{
		"perfect":        "e69cfddb6b9a14a2b723967a655c47024e470267b4b8e8c14c547bbabb46a795",
		"lossy":          "0ad56342c7b82ab7c87a001ad06db5d9be856876bcd06e4e38e87a988bbec827",
		"heavy":          "58d7677adcd28858fb58b573b650cd4a1047d69c5216d28c837639d6a715d394",
		"outage":         "dcc42077874129dec92b94a7c8dfd084941fb547188b7b824ce410f6442c0dc0",
		"journal-replay": "46b8b9bbf481e5240059a5696cf33e457884de9997083e0bcd1851c92f1f1fa8",
		"flight":         "1cd3fa52b09870614c5f4190209ee1428ad34139c36b3c8bedeb8ad2ccc5de2c",
		"emulate":        "6ff93f12422607ade1047be0e3af9189bc6e7507590ba08bfd243c10e49b69a1",
		"late-acks":      "7878b7ce036fcf387aeef95709e0b022d4a2f89ccf0bef665623bc1619cdaac0",
	}
	for _, p := range rtoProfiles {
		t.Run(p.name, func(t *testing.T) {
			if got := rtoDigest(t, p.cfg, p.seed, p.journal); got != want[p.name] {
				t.Errorf("digest %s, want %s", got, want[p.name])
			}
		})
	}
}
