package repro

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/adapt"
	"repro/internal/chaos"
	"repro/internal/cli"
	"repro/internal/downlink"
	"repro/internal/pipeline"
	"repro/internal/stream"
)

// golden is the golden exposure's command line.
var golden = []string{"-seed", "7", "-exposure", "3", "-burst-at", "1.2", "-fluence", "2"}

// TestCLI builds ./cmd/... once and runs the binaries for what lives in
// cmd/: each flag family's wiring, the file outputs and the servers'
// signal drain. The paths behind them are asserted in process by
// TestCrossPathEquivalence and the package tests.
func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, name string, args ...string) (stdout, stderr string) {
		t.Helper()
		stdout, stderr, err := runBinary(bin, name, args...)
		if err != nil {
			t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr)
		}
		return stdout, stderr
	}

	t.Run("version", func(t *testing.T) {
		cmds, err := os.ReadDir("cmd")
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cmds {
			if out, _ := run(t, c.Name(), "-version"); !strings.HasPrefix(out, c.Name()+" ") {
				t.Errorf("%s -version printed %q", c.Name(), out)
			}
		}
	})

	t.Run("models", func(t *testing.T) {
		dir := t.TempDir()
		bundlePath := filepath.Join(dir, "models.gob")
		_, log := run(t, "adapttrain", "-bursts", "1", "-epochs", "3", "-quantize", "-quant-mode", "ptq", "-q", "-o", bundlePath)
		mustContain(t, "adapttrain log", log, "quantized background net")
		bundle, err := adapt.LoadModels(bundlePath)
		if err != nil {
			t.Fatal(err)
		}
		events, err := cli.DefaultExposure.Simulate(goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		// -models, -backend, -parallelism and -skymap reach the trigger:
		// the alert file is the in-process run's.
		for _, tc := range []struct {
			backend     pipeline.Backend
			parallelism string
		}{{pipeline.BackendFloat32, "1"}, {pipeline.BackendInt8, "1"}, {pipeline.BackendInt8, "4"}} {
			alerts := filepath.Join(dir, "alerts.jsonl")
			run(t, "adaptstream", append(golden, "-models", bundlePath, "-backend", string(tc.backend),
				"-parallelism", tc.parallelism, "-skymap", "-alerts", alerts)...)
			cfg := stream.DefaultConfig(cli.CalibrateRate(goldenSeed))
			cfg.Seed = goldenSeed
			cfg.Bundle = bundle
			cfg.Backend = tc.backend
			cfg.SkyMap = true
			want := jsonLines(t, recordsOf(stream.Run(cfg, events)))
			if !strings.Contains(string(want), `"skymap_b64":"`) {
				t.Fatalf("%s: no localized alert with a sky map", tc.backend)
			}
			sameFile(t, alerts, want)
		}
		for _, backend := range []string{"float32", "int8"} {
			out, _ := run(t, "adaptloc", "-models", bundlePath, "-backend", backend, "-fluence", "2", "-polar", "30")
			mustContain(t, "adaptloc "+backend, out, "inferred direction")
		}
		// The report goes to stderr, the metrics registry to -metrics-json
		// and the profile to -cpuprofile.
		metrics, profile := filepath.Join(dir, "loc-metrics.json"), filepath.Join(dir, "cpu.pprof")
		out, log := run(t, "adaptloc", "-parallelism", "2", "-report", "-metrics-json", metrics, "-cpuprofile", profile)
		if strings.Contains(out, "stage timing report") || !strings.Contains(log, "stage timing report") {
			t.Errorf("adaptloc -report: want the report on stderr only\nstdout:\n%s\nstderr:\n%s", out, log)
		}
		mustContain(t, "adaptloc -metrics-json", readFile(t, metrics), `"stages": {`)
		if readFile(t, profile) == "" {
			t.Error("adaptloc -cpuprofile wrote an empty profile")
		}
	})

	t.Run("stream", func(t *testing.T) {
		dir := t.TempDir()
		fl, live := filepath.Join(dir, "fl"), filepath.Join(dir, "live.jsonl")
		metrics := filepath.Join(dir, "metrics.json")
		_, log := run(t, "adaptstream", append(golden, "-journal", fl, "-alerts", live, "-metrics-json", metrics)...)
		mustContain(t, "adaptstream log", log, "alert(s) out")
		mustContain(t, "adaptstream -metrics-json", readFile(t, metrics), `"stream_triggers": `)
		want := []byte(readFile(t, live))
		if len(want) == 0 {
			t.Fatal("live run emitted no alerts")
		}

		// adaptmerge -split slices the journal with skews, -src DIR@offset
		// merges the slices back, and the fused journal replays.
		parts := filepath.Join(dir, "parts")
		_, log = run(t, "adaptmerge", "-split", "3", "-skew", "0.001953125,0,-0.0009765625", "-split-seed", "42",
			"-src", "journal:"+fl, "-out", parts)
		mustMatch(t, "adaptmerge -split log", log, `split .* record\(s\) into 3 journal\(s\)`)
		merged, fused := filepath.Join(dir, "merged.jsonl"), filepath.Join(dir, "fused")
		metrics = filepath.Join(dir, "merge-metrics.json")
		_, log = run(t, "adaptmerge", "-seed", "7",
			"-src", "journal:"+filepath.Join(parts, "part0")+"@0.001953125",
			"-src", "journal:"+filepath.Join(parts, "part1"),
			"-src", "journal:"+filepath.Join(parts, "part2")+"@-0.0009765625",
			"-journal", fused, "-alerts", merged, "-metrics-json", metrics)
		sameFile(t, merged, want)
		mustMatch(t, "adaptmerge log", log, `source s0: .* skew est`)
		for _, key := range []string{`"merge_events_out": `, `"merge_src_s0_events": `, `"merge_src_s2_skew_s": `} {
			mustContain(t, "adaptmerge -metrics-json", readFile(t, metrics), key)
		}
		replayed := filepath.Join(dir, "replayed.jsonl")
		run(t, "adaptstream", "-seed", "7", "-replay", fused, "-alerts", replayed)
		sameFile(t, replayed, want)

		// A torn journal tail replays to the live alerts, twice.
		tearTail(t, fl)
		for i := 0; i < 2; i++ {
			run(t, "adaptstream", "-seed", "7", "-replay", fl, "-alerts", replayed)
			sameFile(t, replayed, want)
		}
	})

	t.Run("skymap", func(t *testing.T) {
		dir := t.TempDir()
		fl, live := filepath.Join(dir, "fl"), filepath.Join(dir, "live.jsonl")
		run(t, "adaptstream", append(golden, "-skymap", "-journal", fl, "-alerts", live)...)
		want := []byte(readFile(t, live))
		mustContain(t, "alerts", string(want), `"skymap_b64":"`)
		for _, p := range []string{"1", "4"} {
			replayed := filepath.Join(dir, "replay"+p+".jsonl")
			run(t, "adaptstream", "-seed", "7", "-replay", fl, "-skymap", "-parallelism", p, "-alerts", replayed)
			sameFile(t, replayed, want)
		}
		out, _ := run(t, "adaptmap", "-alerts", live, "-render=false")
		mustContain(t, "adaptmap -alerts", out, "round-trip:  OK")
		var rec stream.Record
		if err := json.Unmarshal(bytes.SplitN(want, []byte("\n"), 2)[0], &rec); err != nil {
			t.Fatal(err)
		}
		out, _ = run(t, "adaptmap", "-b64", rec.SkyMapB64, "-render=false")
		mustContain(t, "adaptmap -b64", out, "round-trip:  OK")
	})

	t.Run("downlink", func(t *testing.T) {
		dir := t.TempDir()
		session := func(tag, alerts string) (journal, ground string) {
			journal, ground = filepath.Join(dir, "fl"+tag), filepath.Join(dir, "gnd"+tag)
			_, log := run(t, "adaptstream", "-exposure", "2", "-burst-at", "1.0", "-seed", "5",
				"-journal", journal, "-alerts", alerts, "-downlink", ground, "-downlink-budget", "65536",
				"-downlink-loss", "0.10", "-downlink-seed", "7")
			mustContain(t, "adaptstream -downlink log", log, "downlink:")
			return journal, ground
		}
		alerts := filepath.Join(dir, "alerts.jsonl")
		fl, gnd := session("", alerts)
		onboard := journalBytes(t, fl)
		if !bytes.Equal(journalBytes(t, filepath.Join(gnd, "journal")), onboard) {
			t.Error("ground journal differs from the onboard journal")
		}
		sameFile(t, filepath.Join(gnd, "alerts.jsonl"), []byte(readFile(t, alerts)))
		stats := readFile(t, filepath.Join(gnd, "downlink_stats.json"))
		var st downlink.Stats
		if err := json.Unmarshal([]byte(stats), &st); err != nil {
			t.Fatal(err)
		}
		if st.Retransmits == 0 || st.FramesDropped == 0 {
			t.Errorf("a 10%% lossy link cost nothing: %d retransmits, %d frames dropped", st.Retransmits, st.FramesDropped)
		}
		_, gnd2 := session("2", os.DevNull)
		sameFile(t, filepath.Join(gnd2, "downlink_stats.json"), []byte(stats))

		// adaptlink: transmit -> receive open loop, and emulate with drops,
		// reordering and an outage.
		frames := filepath.Join(dir, "pass.bin")
		_, log := run(t, "adaptlink", "-mode", "transmit", "-journal", fl, "-frames", frames)
		mustContain(t, "adaptlink transmit log", log, "frames")
		rx := filepath.Join(dir, "gnd-rx")
		run(t, "adaptlink", "-mode", "receive", "-frames", frames, "-ground", rx)
		if !bytes.Equal(journalBytes(t, filepath.Join(rx, "journal")), onboard) {
			t.Error("adaptlink receive: journal differs from the onboard one")
		}
		em := filepath.Join(dir, "gnd-em")
		_, log = run(t, "adaptlink", "-mode", "emulate", "-journal", fl, "-ground", em, "-budget", "65536",
			"-drop", "0.10", "-reorder", "0.2", "-outage", "10-12", "-seed", "3")
		mustContain(t, "adaptlink emulate log", log, "retransmits")
		if !bytes.Equal(journalBytes(t, filepath.Join(em, "journal")), onboard) {
			t.Error("adaptlink emulate: journal differs from the onboard one")
		}
		if err := json.Unmarshal([]byte(readFile(t, filepath.Join(em, "downlink_stats.json"))), &st); err != nil {
			t.Fatal(err)
		}
		if st.OutageLost == 0 {
			t.Error("adaptlink emulate: the outage window lost no frames")
		}
	})

	t.Run("sim", func(t *testing.T) {
		dir := t.TempDir()
		list, _ := run(t, "adaptsim", "-scenario-list")
		mustContain(t, "-scenario-list", list, `"name": "flight"`)
		mustContain(t, "-scenario-list", list, `"dropouts": 1`)

		sc, metrics := filepath.Join(dir, "sc.json"), filepath.Join(dir, "metrics.json")
		_, log := run(t, "adaptsim", "-scenario", "flight", "-seed", "11", "-scorecard", sc,
			"-alerts", filepath.Join(dir, "alerts.jsonl"), "-metrics-json", metrics)
		mustContain(t, "adaptsim log", log, `scenario "flight"`)
		mustContain(t, "adaptsim -metrics-json", readFile(t, metrics), `"chaos_overload_shed": `)
		card := readFile(t, sc)
		for _, s := range []string{`"scenario": "flight"`, `"within_budget": true`,
			`"name": "dropout0"`, `"name": "saa0"`, `"name": "overload"`} {
			mustContain(t, "flight scorecard", card, s)
		}
		var c chaos.Scorecard
		if err := json.Unmarshal([]byte(card), &c); err != nil {
			t.Fatal(err)
		}
		if c.BackfillEvents == 0 || c.OverloadShed == 0 || c.BurstsDetected != 3 {
			t.Errorf("flight faults did not bite: backfill %d, shed %d, detected %d of 3",
				c.BackfillEvents, c.OverloadShed, c.BurstsDetected)
		}

		spec := filepath.Join(dir, "custom.json")
		if err := os.WriteFile(spec, []byte(`{
  "name": "smoke-custom",
  "duration_sec": 2,
  "lanes": 2,
  "background": {"rate_hz": 4000},
  "bursts": [{"time_sec": 1.0, "fluence": 4, "polar_deg": 25}],
  "dropouts": [{"lane": 1, "start_sec": 0.6, "end_sec": 1.4, "backfill": true}],
  "false_alert_budget": 1
}`), 0o644); err != nil {
			t.Fatal(err)
		}
		run(t, "adaptsim", "-scenario", spec, "-seed", "4", "-scorecard", sc)
		mustContain(t, "custom scorecard", readFile(t, sc), `"scenario": "smoke-custom"`)
		mustContain(t, "custom scorecard", readFile(t, sc), `"bursts_detected": 1`)

		if _, _, err := runBinary(bin, "adaptsim", "-scenario", os.DevNull); err == nil {
			t.Error("adaptsim accepted an empty scenario spec")
		}
	})

	t.Run("drain", func(t *testing.T) {
		replica, addr := startServer(t, bin, "adaptserve", "-addr", "127.0.0.1:0")
		router, _ := startServer(t, bin, "adaptrouter", "-addr", "127.0.0.1:0", "-replicas", "http://"+addr)
		for _, s := range []*server{router, replica} {
			s.drain(t)
		}
	})
}

// runBinary runs bin/name with args and returns its output.
func runBinary(bin, name string, args ...string) (stdout, stderr string, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(bin, name), args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	return out.String(), errOut.String(), err
}

// server is a running adaptserve or adaptrouter.
type server struct {
	name string
	cmd  *exec.Cmd
	logs chan string // every log line, once stderr closes
}

// startServer starts a server binary and waits for its "listening on"
// line, returning the address it reports.
func startServer(t *testing.T, bin, name string, args ...string) (*server, string) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, name), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	s := &server{name: name, cmd: cmd, logs: make(chan string, 1)}
	addrc := make(chan string, 1)
	go func(addrc chan<- string) {
		sc := bufio.NewScanner(stderr)
		var logs strings.Builder
		listening := regexp.MustCompile(`listening on ([^, ]+)`)
		for sc.Scan() {
			if m := listening.FindStringSubmatch(sc.Text()); m != nil && addrc != nil {
				addrc <- m[1]
				close(addrc)
				addrc = nil
			}
			logs.WriteString(sc.Text() + "\n")
		}
		if addrc != nil {
			close(addrc)
		}
		s.logs <- logs.String()
	}(addrc)
	addr, ok := <-addrc
	if !ok {
		t.Fatalf("%s exited before listening:\n%s", name, <-s.logs)
	}
	return s, addr
}

// drain sends SIGTERM and requires exit 0 and a clean-drain log line.
func (s *server) drain(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	logs := <-s.logs
	if err := s.cmd.Wait(); err != nil {
		t.Errorf("%s after SIGTERM: %v\n%s", s.name, err, logs)
	}
	mustContain(t, s.name+" log", logs, "drained cleanly")
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// sameFile requires the file at path to hold want.
func sameFile(t *testing.T, path string, want []byte) {
	t.Helper()
	if got := readFile(t, path); got != string(want) {
		t.Errorf("%s:\n got %s\nwant %s", path, got, want)
	}
}

func mustContain(t *testing.T, what, s, sub string) {
	t.Helper()
	if !strings.Contains(s, sub) {
		t.Errorf("%s lacks %q:\n%s", what, sub, s)
	}
}

func mustMatch(t *testing.T, what, s, pattern string) {
	t.Helper()
	if !regexp.MustCompile(pattern).MatchString(s) {
		t.Errorf("%s does not match %q:\n%s", what, pattern, s)
	}
}
