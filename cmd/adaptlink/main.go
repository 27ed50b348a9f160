// Command adaptlink drives the telemetry downlink (internal/downlink) from
// the shell: it packs a recorded flight journal into delta-compressed,
// CRC-framed chunks and either writes the raw frame stream, reassembles one
// back into ground artifacts, or runs the full closed-loop ARQ session over
// an emulated lossy link.
//
// Three modes:
//
//	adaptlink -mode transmit -journal ./fl -frames pass.bin       # journal → frame stream
//	adaptlink -mode receive -frames pass.bin -ground ./gnd        # frame stream → ground dir
//	adaptlink -mode emulate -journal ./fl -ground ./gnd \
//	    -budget 16384 -drop 0.1 -reorder 0.2 -outage 3-5 -seed 7  # closed loop with ARQ
//
// Emulate is the flight-fidelity path: frames cross a seeded lossy link,
// the ground's ACK/NAK control frames cross it back, and the selective-
// repeat ARQ layer recovers every loss — the reassembled journal under
// -ground is byte-identical to the onboard one, and the session stats land
// in <ground>/downlink_stats.json. Transmit/receive are the open-loop
// halves for inspecting a frame stream on disk; receive tolerates (and
// counts) corrupt spans by resyncing on the frame magic, so a truncated or
// damaged capture yields every intact message it still contains.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/downlink"
	"repro/internal/flightlog"
)

func main() {

	mode := flag.String("mode", "emulate", "transmit, receive, or emulate")
	journalDir := flag.String("journal", "", "flight journal directory to downlink (transmit, emulate)")
	framesPath := flag.String("frames", "", "frame stream file (transmit writes, receive reads)")
	groundDir := flag.String("ground", "", "ground output directory (receive, emulate)")
	segBytes := flag.Int("segment-bytes", 0, "reassembled journal segment size; match the onboard journal's for byte-identical segments (0 = flightlog default)")

	budget := flag.Float64("budget", 4096, "downlink budget in bytes/s")
	chunkBytes := flag.Int("chunk", 1024, "chunk payload size in bytes")
	batch := flag.Int("batch", 4096, "journal records per delta-codec batch")
	noflate := flag.Bool("no-flate", false, "disable the codec's deflate stage (preconditioned stream only)")

	drop := flag.Float64("drop", 0, "per-frame drop probability (emulate)")
	corrupt := flag.Float64("corrupt", 0, "per-frame single-byte corruption probability (emulate)")
	reorder := flag.Float64("reorder", 0, "per-frame reorder probability (emulate)")
	outages := flag.String("outage", "", "comma-separated outage windows as start-end seconds, e.g. 3-5,8-9 (emulate)")
	seed := flag.Uint64("seed", 1, "link fault seed (emulate)")
	deadline := flag.Float64("deadline", 3600, "drain deadline in event-time seconds (emulate)")
	statsPath := flag.String("stats", "", "write session stats JSON here (default <ground>/downlink_stats.json)")
	cli.Parse("adaptlink")

	switch *mode {
	case "transmit":
		if *journalDir == "" || *framesPath == "" {
			log.Fatal("transmit needs -journal and -frames")
		}
		transmit(*journalDir, *framesPath, *chunkBytes, *batch, *noflate)
	case "receive":
		if *framesPath == "" || *groundDir == "" {
			log.Fatal("receive needs -frames and -ground")
		}
		receive(*framesPath, *groundDir, *segBytes)
	case "emulate":
		if *journalDir == "" || *groundDir == "" {
			log.Fatal("emulate needs -journal and -ground")
		}
		emulate(emulateOpts{
			journalDir: *journalDir,
			groundDir:  *groundDir,
			segBytes:   *segBytes,
			budget:     *budget,
			chunkBytes: *chunkBytes,
			batch:      *batch,
			noflate:    *noflate,
			drop:       *drop,
			corrupt:    *corrupt,
			reorder:    *reorder,
			outages:    *outages,
			seed:       *seed,
			deadline:   *deadline,
			statsPath:  *statsPath,
		})
	default:
		log.Fatalf("unknown -mode %q (want transmit, receive, or emulate)", *mode)
	}
}

// readJournal loads every record from a flight journal directory.
func readJournal(dir string) [][]byte {
	var records [][]byte
	if err := flightlog.Replay(dir, func(p []byte) error {
		records = append(records, append([]byte(nil), p...))
		return nil
	}); err != nil {
		log.Fatalf("replay journal %s: %v", dir, err)
	}
	if len(records) == 0 {
		log.Fatalf("journal %s has no records", dir)
	}
	return records
}

// enqueueJournal packs records into delta-codec batches on the scheduler's
// journal class, returning the raw and encoded byte totals.
func enqueueJournal(enq func(payload []byte) error, records [][]byte, batch int, noflate bool) (raw, coded int64) {
	if batch <= 0 {
		batch = 4096
	}
	for _, r := range records {
		raw += int64(len(r))
	}
	for lo := 0; lo < len(records); lo += batch {
		hi := min(lo+batch, len(records))
		enc, err := downlink.EncodeRecords(records[lo:hi], downlink.CodecOptions{NoFlate: noflate})
		if err != nil {
			log.Fatalf("encode batch: %v", err)
		}
		coded += int64(len(enc))
		if err := enq(enc); err != nil {
			log.Fatalf("enqueue batch: %v", err)
		}
	}
	return raw, coded
}

// transmit writes the journal's chunked frame stream to a file, open loop.
func transmit(journalDir, framesPath string, chunkBytes, batch int, noflate bool) {
	records := readJournal(journalDir)
	sched := downlink.NewScheduler(chunkBytes, nil)
	raw, coded := enqueueJournal(func(p []byte) error {
		_, err := sched.Enqueue(0, downlink.ClassJournal, p)
		return err
	}, records, batch, noflate)

	f, err := os.Create(framesPath)
	if err != nil {
		log.Fatal(err)
	}
	chunks, frameBytes := 0, int64(0)
	for {
		c, _, ok := sched.NextChunk()
		if !ok {
			break
		}
		frame := c.EncodeFrame()
		if _, err := f.Write(frame); err != nil {
			log.Fatal(err)
		}
		chunks++
		frameBytes += int64(len(frame))
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "adaptlink: %d records (%d bytes) -> %d codec bytes (%.2fx) -> %d frames, %d bytes on the wire\n",
		len(records), raw, coded, float64(raw)/float64(coded), chunks, frameBytes)
}

// receive reassembles a frame stream file into ground artifacts.
func receive(framesPath, groundDir string, segBytes int) {
	data, err := os.ReadFile(framesPath)
	if err != nil {
		log.Fatal(err)
	}
	sink, err := downlink.NewDirSink(groundDir, segBytes)
	if err != nil {
		log.Fatal(err)
	}
	r := downlink.NewReassembler()
	r.OnMessage = sink.OnMessage
	frames, skipped := downlink.ScanFrames(data, func(f *downlink.Frame) {
		if f.Chunk != nil {
			r.Offer(f.Chunk, 0)
		}
	})
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	st := r.Stats()
	fmt.Fprintf(os.Stderr, "adaptlink: %d frames (%d bytes skipped), %d messages delivered, %d journal records\n",
		frames, skipped, st.MessagesDelivered, sink.JournalRecords)
}

type emulateOpts struct {
	journalDir, groundDir, outages, statsPath string
	segBytes, chunkBytes, batch               int
	budget, drop, corrupt, reorder, deadline  float64
	seed                                      uint64
	noflate                                   bool
}

// emulate runs the closed-loop ARQ session over the seeded lossy link.
func emulate(o emulateOpts) {
	records := readJournal(o.journalDir)
	sink, err := downlink.NewDirSink(o.groundDir, o.segBytes)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := downlink.NewSession(downlink.Config{
		BudgetBytesPerSec: o.budget,
		ChunkBytes:        o.chunkBytes,
		Seed:              o.seed,
		Loss: downlink.LossProfile{
			DropProb:    o.drop,
			CorruptProb: o.corrupt,
			ReorderProb: o.reorder,
			Outages:     parseOutages(o.outages),
		},
		OnMessage: sink.OnMessage,
	})
	if err != nil {
		log.Fatal(err)
	}
	raw, coded := enqueueJournal(func(p []byte) error {
		return sess.Enqueue(downlink.ClassJournal, p)
	}, records, o.batch, o.noflate)

	drained := sess.Flush(o.deadline)
	if err := sink.Close(); err != nil {
		log.Fatal(err)
	}
	if !drained {
		log.Fatalf("link did not drain by %g s", o.deadline)
	}
	if sink.JournalRecords != len(records) {
		log.Fatalf("ground has %d records, onboard %d", sink.JournalRecords, len(records))
	}

	st := sess.Stats()
	statsPath := o.statsPath
	if statsPath == "" {
		statsPath = filepath.Join(o.groundDir, "downlink_stats.json")
	}
	blob, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(statsPath, append(blob, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "adaptlink: %d records (%d bytes, %.2fx codec) drained in %.1f s event time: %d chunks, %d retransmits, %d dropped, %d corrupted, %d outage-lost\n",
		len(records), raw, float64(raw)/float64(coded), st.ElapsedSec,
		st.ChunksSent, st.Retransmits, st.FramesDropped, st.FramesCorrupted, st.OutageLost)
}

// parseOutages parses "start-end,start-end" into outage windows.
func parseOutages(s string) []downlink.Window {
	if s == "" {
		return nil
	}
	var out []downlink.Window
	for _, tok := range strings.Split(s, ",") {
		lohi := strings.SplitN(strings.TrimSpace(tok), "-", 2)
		if len(lohi) != 2 {
			log.Fatalf("bad -outage entry %q (want start-end)", tok)
		}
		lo, err1 := strconv.ParseFloat(lohi[0], 64)
		hi, err2 := strconv.ParseFloat(lohi[1], 64)
		if err1 != nil || err2 != nil || hi <= lo {
			log.Fatalf("bad -outage window %q", tok)
		}
		out = append(out, downlink.Window{StartSec: lo, EndSec: hi})
	}
	return out
}
