package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestServeDrainsOnCancel drives the signal drain through its context:
// cancelling it shuts the server down, lets the in-flight request finish
// and logs the clean drain.
func TestServeDrainsOnCancel(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)

	release := make(chan struct{})
	started := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.Write([]byte("done"))
	})}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- Serve(ctx, srv, l, 5*time.Second) }()

	resp := make(chan string, 1)
	go func() {
		r, err := http.Get("http://" + l.Addr().String())
		if err != nil {
			resp <- err.Error()
			return
		}
		defer r.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(r.Body)
		resp <- b.String()
	}()
	<-started
	cancel()
	close(release)
	if got := <-resp; got != "done" {
		t.Errorf("in-flight request got %q, want done", got)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if !strings.Contains(logs.String(), "drained cleanly") {
		t.Errorf("no clean-drain line in %q", logs.String())
	}
}

func TestModelsLoadRejects(t *testing.T) {
	for _, tc := range []struct {
		m    Models
		want string
	}{
		{Models{Backend: "fp16"}, "unknown inference backend"},
		{Models{Backend: "float32", Path: filepath.Join(t.TempDir(), "missing.gob")}, "load models"},
	} {
		if _, _, err := tc.m.Load(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: Load error %v, want one naming %q", tc.m, err, tc.want)
		}
	}
	if b, backend, err := (&Models{Backend: "float32"}).Load(); b != nil || backend != "float32" || err != nil {
		t.Errorf("no -models: got (%v, %q, %v), want the no-ML float32 pipeline", b, backend, err)
	}
}

// TestMetricsWriteJSON: -metrics-json holds the registry's indented JSON
// with a trailing newline.
func TestMetricsWriteJSON(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("stream_triggers").Inc()
	reg.ObserveStage("stream_localize", time.Millisecond)
	m := &Metrics{JSONPath: filepath.Join(t.TempDir(), "m.json")}
	if err := m.Write(reg); err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(reg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(m.JSONPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(want, '\n')) {
		t.Errorf("metrics JSON:\n%s\nwant:\n%s", got, want)
	}
}

func TestFlagValuesRejected(t *testing.T) {
	if _, err := (Exposure{Seconds: 0.1, BurstAt: "0.05,soon"}).Simulate(1); err == nil ||
		!strings.Contains(err.Error(), "soon") {
		t.Errorf("bad -burst-at entry: got %v", err)
	}
	tr := &Trigger{BkgRate: 100, Journal: t.TempDir(), Fsync: "sometimes"}
	if _, err := tr.Config(1); err == nil || !strings.Contains(err.Error(), "sometimes") {
		t.Errorf("bad -fsync policy: got %v", err)
	}
}
