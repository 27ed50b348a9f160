// Package cli is the command-line surface the cmd/ binaries share: the
// -version flag, the model bundle and its inference backend, -parallelism,
// the metrics report, CPU profiling and the servers' signal drain, plus the
// live-exposure and trigger flags of adaptstream and adaptmerge.
//
// Each flag family is registered on flag.CommandLine by the binaries that
// have it, before Parse. Functions return errors; the mains log them.
package cli

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime/pprof"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/pipeline"
)

// parallelism is -parallelism once Parallelism has registered it.
var parallelism *int

// Parse sets the log prefix to name and parses the command line. With
// -version it prints the build line and exits 0. A registered
// -parallelism becomes the process-wide worker default.
func Parse(name string) {
	log.SetFlags(0)
	log.SetPrefix(name + ": ")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Line(name))
		os.Exit(0)
	}
	if parallelism != nil {
		par.SetDefaultWorkers(*parallelism)
	}
}

// Parallelism registers -parallelism. Parse applies it to the worker
// default; the value is for the Workers fields of the binary's configs.
func Parallelism() *int {
	parallelism = flag.Int("parallelism", 0, "worker goroutines for the parallel stages (0 = GOMAXPROCS, 1 = serial; results are identical at any setting)")
	return parallelism
}

// Models holds -models and -backend.
type Models struct {
	Path    string
	Backend string
}

// ModelFlags registers -models and -backend.
func ModelFlags() *Models {
	m := new(Models)
	flag.StringVar(&m.Path, "models", "", "trained model bundle (empty = no-ML pipeline)")
	flag.StringVar(&m.Backend, "backend", string(pipeline.BackendFloat32), "inference backend: float32 or int8 (int8 needs a bundle from adapttrain -quantize)")
	return m
}

// Load parses the backend, loads the bundle (nil without -models) and
// checks that the backend can run on it.
func (m *Models) Load() (*models.Bundle, pipeline.Backend, error) {
	backend, err := pipeline.ParseBackend(m.Backend)
	if err != nil {
		return nil, "", err
	}
	var bundle *models.Bundle
	if m.Path != "" {
		if bundle, err = models.LoadBundleFile(m.Path); err != nil {
			return nil, "", fmt.Errorf("load models: %w", err)
		}
	}
	if _, err := pipeline.NewClassifier(backend, bundle); err != nil {
		return nil, "", err
	}
	return bundle, backend, nil
}

// Metrics holds -report and, where the binary has it, -metrics-json.
type Metrics struct {
	Report   bool
	JSONPath string
}

// MetricsFlags registers -report, and -metrics-json when withJSON is set.
func MetricsFlags(withJSON bool) *Metrics {
	m := new(Metrics)
	flag.BoolVar(&m.Report, "report", false, "print the metrics report to stderr when done")
	if withJSON {
		flag.StringVar(&m.JSONPath, "metrics-json", "", "write the metrics registry as JSON to this file")
	}
	return m
}

// Write prints reg's report to stderr under -report and writes reg as
// JSON to the -metrics-json file when one is named.
func (m *Metrics) Write(reg *obs.Registry) error {
	if m.Report {
		reg.WriteText(os.Stderr)
	}
	if m.JSONPath == "" {
		return nil
	}
	f, err := os.Create(m.JSONPath)
	if err != nil {
		return err
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Profile holds -cpuprofile.
type Profile struct{ path string }

// CPUProfile registers -cpuprofile.
func CPUProfile() *Profile {
	p := new(Profile)
	flag.StringVar(&p.path, "cpuprofile", "", "write a CPU profile of the run to this file")
	return p
}

// Start profiles the CPU into the -cpuprofile file, if one is named, until
// the returned stop is called.
func (p *Profile) Start() (stop func(), err error) {
	if p.path == "" {
		return func() {}, nil
	}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			log.Printf("cpuprofile: %v", err)
		}
	}, nil
}

// Server is a drainable HTTP server: serve.Server and router.Router.
type Server interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// Serve runs srv on l until ctx is done (the mains pass a
// signal.NotifyContext for SIGTERM and SIGINT), then drains it within
// drainTimeout and logs "drained cleanly".
func Serve(ctx context.Context, srv Server, l net.Listener, drainTimeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		return nil
	case <-ctx.Done():
	}
	log.Printf("draining (timeout %s)", drainTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	<-done
	log.Printf("drained cleanly")
	return nil
}
