package pipeline

import (
	"testing"

	"repro/internal/models/modelstest"
	"repro/internal/xrand"
)

func TestParseBackend(t *testing.T) {
	cases := map[string]Backend{
		"": BackendFloat32, "float32": BackendFloat32,
		"int8": BackendInt8,
	}
	for in, want := range cases {
		got, err := ParseBackend(in)
		if err != nil || got != want {
			t.Errorf("ParseBackend(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"fp16", "fpga-sim"} {
		if _, err := ParseBackend(bad); err == nil {
			t.Errorf("ParseBackend accepted %q", bad)
		}
	}
	if len(Backends) != 2 {
		t.Errorf("Backends lists %d names, want 2", len(Backends))
	}
}

func TestNewClassifier(t *testing.T) {
	if cls, err := NewClassifier(BackendInt8, nil); cls != nil || err != nil {
		t.Errorf("nil bundle: got %v, %v; want nil, nil", cls, err)
	}
	b := modelstest.QuantBundle(t, 31)
	if cls, err := NewClassifier(BackendFloat32, b); err != nil {
		t.Error(err)
	} else if fp, ok := cls.(FP32Classifier); !ok || fp.Net != b.Bkg {
		t.Errorf("float32 classifier = %T", cls)
	}
	if cls, err := NewClassifier(BackendInt8, b); err != nil {
		t.Error(err)
	} else if cls != b.Int8 {
		t.Errorf("int8 classifier = %T", cls)
	}

	// The integer backend demands a quantized bundle.
	plain := *b
	plain.Int8 = nil
	if _, err := NewClassifier(BackendInt8, &plain); err == nil {
		t.Error("backend int8 accepted an unquantized bundle")
	}
	if _, err := NewClassifier("fp16", b); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestRunBackendResolution: Options.Backend must route inference exactly
// like injecting the same classifier via BkgOverride.
func TestRunBackendResolution(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := modelstest.QuantBundle(t, 31)
	events, _ := simulateExposure(1.5, 40, 5)

	run := func(backend Backend, override BkgClassifier) Result {
		opts := DefaultOptions()
		opts.Bundle = b
		opts.Backend = backend
		opts.BkgOverride = override
		return Run(opts, events, xrand.New(6))
	}

	viaBackend := run(BackendInt8, nil)
	viaOverride := run("", b.Int8)
	if viaBackend.Loc.Dir != viaOverride.Loc.Dir || viaBackend.Kept != viaOverride.Kept {
		t.Error("Backend=int8 differs from BkgOverride=Int8Net")
	}
}

// TestRunInt8DeterministicAcrossWorkers: the integer backend's pipeline
// results are bitwise-identical at any worker count.
func TestRunInt8DeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("trains networks")
	}
	b := modelstest.QuantBundle(t, 31)
	events, _ := simulateExposure(1.5, 40, 7)
	var ref Result
	for i, workers := range []int{1, 2, 4, 7} {
		opts := DefaultOptions()
		opts.Bundle = b
		opts.Backend = BackendInt8
		opts.Workers = workers
		res := Run(opts, events, xrand.New(8))
		if i == 0 {
			ref = res
			continue
		}
		if res.Loc.Dir != ref.Loc.Dir || res.Kept != ref.Kept || res.NNIterations != ref.NNIterations {
			t.Errorf("workers=%d: int8 pipeline result differs from serial", workers)
		}
	}
}

func TestRunPanicsOnUnquantizedInt8(t *testing.T) {
	b := modelstest.QuantBundle(t, 31)
	plain := *b
	plain.Int8 = nil
	opts := DefaultOptions()
	opts.Bundle = &plain
	opts.Backend = BackendInt8
	events, _ := simulateExposure(1.5, 40, 9)
	defer func() {
		if recover() == nil {
			t.Error("Run with int8 backend and unquantized bundle did not panic")
		}
	}()
	Run(opts, events, xrand.New(9))
}
