package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/background"
	"repro/internal/detector"
	"repro/internal/flightlog"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Exposure is a simulated live exposure: background over Seconds with one
// burst injected at each start time in BurstAt.
type Exposure struct {
	Seconds    float64
	BurstAt    string // comma-separated burst start times in seconds
	Fluence    float64
	PolarDeg   float64
	AzimuthDeg float64
}

// DefaultExposure is the exposure flags' default: three seconds with one
// 2 MeV/cm² burst at 1.2 s. With seed 7 it is the golden exposure the
// cross-path equivalence tests run.
var DefaultExposure = Exposure{Seconds: 3, BurstAt: "1.2", Fluence: 2, PolarDeg: 20, AzimuthDeg: 130}

// ExposureFlags registers -exposure, -burst-at, -fluence, -polar and
// -azimuth with DefaultExposure's values.
func ExposureFlags() *Exposure {
	e := DefaultExposure
	flag.Float64Var(&e.Seconds, "exposure", e.Seconds, "simulated exposure length in seconds")
	flag.StringVar(&e.BurstAt, "burst-at", e.BurstAt, "comma-separated burst start times in seconds (empty = background only)")
	flag.Float64Var(&e.Fluence, "fluence", e.Fluence, "fluence of each injected burst in MeV/cm²")
	flag.Float64Var(&e.PolarDeg, "polar", e.PolarDeg, "burst polar angle in degrees")
	flag.Float64Var(&e.AzimuthDeg, "azimuth", e.AzimuthDeg, "burst azimuth in degrees")
	return &e
}

// Simulate builds the exposure's events from seed, in arrival order.
func (e Exposure) Simulate(seed uint64) ([]*detector.Event, error) {
	det := detector.DefaultConfig()
	rng := xrand.New(seed)
	events := background.DefaultModel().Simulate(&det, e.Seconds, rng)
	for _, tok := range strings.Split(e.BurstAt, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		t0, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -burst-at entry %q: %v", tok, err)
		}
		b := detector.Burst{Fluence: e.Fluence, PolarDeg: e.PolarDeg, AzimuthDeg: e.AzimuthDeg}
		for _, ev := range detector.SimulateBurst(&det, b, rng) {
			ev.ArrivalTime += t0
			events = append(events, ev)
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		return events[i].ArrivalTime < events[j].ArrivalTime
	})
	return events, nil
}

// CalibrateRate is the quiet-sky rate a trigger starts from when no
// -bkg-rate is given: the count of one seeded second of background, the
// campaign runner's convention.
func CalibrateRate(seed uint64) float64 {
	det := detector.DefaultConfig()
	return float64(len(background.DefaultModel().Simulate(&det, 1.0, xrand.New(seed).Split(0xCA1))))
}

// Trigger holds the trigger, journal and alert-output flags of adaptstream
// and adaptmerge.
type Trigger struct {
	BkgRate float64
	Sigma   float64
	Window  float64
	Journal string
	Fsync   string
	Alerts  string
}

// TriggerFlags registers -bkg-rate, -sigma, -window, -journal, -fsync and
// -alerts.
func TriggerFlags() *Trigger {
	t := new(Trigger)
	flag.Float64Var(&t.BkgRate, "bkg-rate", 0, "calibrated background rate in events/s (0 = calibrate from a seeded 1 s background simulation)")
	flag.Float64Var(&t.Sigma, "sigma", 8, "trigger significance threshold in Poisson sigma")
	flag.Float64Var(&t.Window, "window", 0.1, "trigger sliding-window width in seconds")
	flag.StringVar(&t.Journal, "journal", "", "record the admitted event sequence to a flight journal in this directory")
	flag.StringVar(&t.Fsync, "fsync", "interval", "journal durability: always, interval, or none")
	flag.StringVar(&t.Alerts, "alerts", "", "write alert records as JSON lines to this file (default stdout)")
	return t
}

// Config returns the stream configuration the flags describe for seed,
// calibrating the background rate when -bkg-rate is 0 and opening the
// -journal, if named, as Config.Journal.
func (t *Trigger) Config(seed uint64) (stream.Config, error) {
	rate := t.BkgRate
	if rate <= 0 {
		rate = CalibrateRate(seed)
		log.Printf("calibrated background rate %.0f events/s", rate)
	}
	cfg := stream.DefaultConfig(rate)
	cfg.Seed = seed
	cfg.SigmaThreshold = t.Sigma
	cfg.WindowSec = t.Window
	cfg.AlertBuffer = 1024
	if t.Journal == "" {
		return cfg, nil
	}
	var pol flightlog.SyncPolicy
	switch t.Fsync {
	case "always":
		pol = flightlog.SyncAlways
	case "interval":
		pol = flightlog.SyncInterval
	case "none":
		pol = flightlog.SyncNone
	default:
		return cfg, fmt.Errorf("unknown -fsync policy %q (want always, interval, or none)", t.Fsync)
	}
	j, err := flightlog.Open(flightlog.Options{Dir: t.Journal, Sync: pol})
	if err != nil {
		return cfg, fmt.Errorf("open journal: %w", err)
	}
	cfg.Journal = j
	return cfg, nil
}

// CloseJournal closes j, if any, and logs its record, segment and byte
// counts under label.
func CloseJournal(j *flightlog.Journal, label string) error {
	if j == nil {
		return nil
	}
	if err := j.Close(); err != nil {
		return fmt.Errorf("close journal: %w", err)
	}
	st := j.Stats()
	log.Printf("%s: %d records in %d segment(s), %d bytes", label, st.Appended, st.Segments, st.TotalBytes)
	return nil
}

// WriteAlerts writes each alert from alerts as one JSON line to the
// -alerts file, or stdout without one, on its own goroutine. The returned
// wait blocks until alerts is closed and returns every record with the
// first write or close error.
func (t *Trigger) WriteAlerts(alerts <-chan stream.Alert) (wait func() ([]stream.Record, error), err error) {
	out, closeOut := os.Stdout, func() error { return nil }
	if t.Alerts != "" {
		f, err := os.Create(t.Alerts)
		if err != nil {
			return nil, err
		}
		out, closeOut = f, f.Close
	}
	var recs []stream.Record
	var werr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		enc := json.NewEncoder(out)
		for a := range alerts {
			rec := a.Record()
			if werr == nil {
				werr = enc.Encode(rec)
			}
			recs = append(recs, rec)
		}
		if err := closeOut(); werr == nil {
			werr = err
		}
	}()
	return func() ([]stream.Record, error) {
		<-done
		return recs, werr
	}, nil
}
