// Command adaptmap decodes downlink sky-map payloads (internal/skymap):
// it prints the header summary and a credible-area table, verifies the
// encode→decode round trip byte-for-byte, and renders the quantized
// posterior as an ASCII density map.
//
// Three input forms, exactly one per run:
//
//	adaptmap payload.bin              # raw binary payload file
//	adaptmap -b64 QVNLTQ...           # base64 payload string (skymap_b64)
//	adaptmap -alerts alerts.jsonl     # every record of an adaptstream file
//
// The round-trip check is the ground-segment acceptance test: a decoded
// map must re-encode to the exact bytes that came down, otherwise the
// payload (or this decoder) is corrupt and adaptmap exits non-zero.
package main

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/geom"
	"repro/internal/plot"
	"repro/internal/sky"
	"repro/internal/skymap"
	"repro/internal/stream"
)

func main() {
	b64 := flag.String("b64", "", "decode this base64 payload string instead of a file")
	alerts := flag.String("alerts", "", "decode the skymap_b64 payload of every record in this alerts JSONL file")
	levels := flag.String("levels", "0.50,0.68,0.90,0.95,0.99", "comma-separated credible levels for the area table")
	render := flag.Bool("render", true, "print the ASCII posterior rendering")
	size := flag.Int("size", 27, "rendering diameter in characters")
	cli.Parse("adaptmap")

	ps, err := parseLevels(*levels)
	if err != nil {
		log.Fatal(err)
	}

	sources := 0
	for _, set := range []bool{*b64 != "", *alerts != "", flag.NArg() > 0} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		log.Fatal("need exactly one input: a payload file argument, -b64, or -alerts")
	}

	failed := false
	switch {
	case *b64 != "":
		payload, err := base64.StdEncoding.DecodeString(*b64)
		if err != nil {
			log.Fatalf("bad base64: %v", err)
		}
		failed = !inspect(payload, "payload", ps, *render, *size)
	case *alerts != "":
		f, err := os.Open(*alerts)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<24)
		n := 0
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			n++
			var rec stream.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				log.Fatalf("record %d: %v", n, err)
			}
			if rec.SkyMapB64 == "" {
				fmt.Printf("alert %d (t=%.3fs): no sky-map payload\n\n", n, rec.TriggerS)
				continue
			}
			payload, err := base64.StdEncoding.DecodeString(rec.SkyMapB64)
			if err != nil {
				log.Fatalf("record %d: bad skymap_b64: %v", n, err)
			}
			label := fmt.Sprintf("alert %d (t=%.3fs, %.1fσ)", n, rec.TriggerS, rec.Significance)
			if !inspect(payload, label, ps, *render, *size) {
				failed = true
			}
		}
		if err := sc.Err(); err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			log.Fatal("no records in alerts file")
		}
	default:
		payload, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		failed = !inspect(payload, flag.Arg(0), ps, *render, *size)
	}
	if failed {
		os.Exit(1)
	}
}

// inspect decodes one payload, prints its summary, verifies the byte-exact
// round trip, and reports whether everything checked out.
func inspect(payload []byte, label string, levels []float64, render bool, size int) bool {
	m, err := skymap.Decode(payload)
	if err != nil {
		fmt.Printf("%s: DECODE FAILED: %v\n", label, err)
		return false
	}
	coarsePx := sky.NewGrid(m.CoarseBands).NumPixels()
	peak := m.Peak()
	fmt.Printf("%s: %s v%d, %d bytes\n", label, skymap.Magic, skymap.Version, len(payload))
	fmt.Printf("  geometry:    %d coarse bands (%d px) + %d tiles × refine %d (%d fine px)\n",
		m.CoarseBands, coarsePx, len(m.Tiles), m.RefineFactor, m.NumFine())
	fmt.Printf("  quantization: floor %.1f log-units below peak, temperature %g\n",
		-m.LogFloor, m.Temperature)
	fmt.Printf("  peak:        polar %.2f°, azimuth %.2f°\n",
		geom.Deg(geom.Polar(peak)), geom.Deg(geom.Azimuth(peak)))
	fmt.Printf("  embedded:    68%% area %.1f deg², 90%% area %.1f deg²\n", m.Area68, m.Area90)

	ok := true
	if re := m.Encode(); !bytes.Equal(re, payload) {
		fmt.Printf("  round-trip:  FAILED — re-encoded payload differs from input\n")
		ok = false
	} else {
		fmt.Printf("  round-trip:  OK (decode→encode byte-identical)\n")
	}

	fmt.Printf("  credible areas (recomputed from quantized cells):\n")
	for _, p := range levels {
		fmt.Printf("    %3.0f%%  %8.1f deg²\n", p*100, m.CredibleAreaDeg2(p))
	}

	if render {
		marks := map[byte]geom.Vec{'P': peak}
		plot.Density(os.Stdout, func(d geom.Vec) float64 {
			return math.Exp(m.LogDensity(d))
		}, marks, size, "orthographic view from zenith; shading = decoded posterior density, P = peak")
	}
	fmt.Println()
	return ok
}

func parseLevels(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -levels entry %q: %v", tok, err)
		}
		if !(p > 0 && p < 1) {
			return nil, fmt.Errorf("-levels entry %v outside (0, 1)", p)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-levels is empty")
	}
	return out, nil
}
