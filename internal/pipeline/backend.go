package pipeline

import (
	"fmt"

	"repro/internal/models"
	"repro/internal/nn"
)

// Backend names one of the pluggable inference implementations of the
// background classifier. The choice changes which arithmetic evaluates the
// network — never which events trigger or how the pipeline iterates — so
// backends are interchangeable up to quantization error:
//
//   - BackendFloat32 runs the bundle's FP32 network (the training-time
//     arithmetic; bitwise-deterministic at any worker count because shards
//     are row-aligned and each row's dot products are evaluated serially).
//   - BackendInt8 runs the QAT-quantized integer network
//     (quant.Int8Net): int8×int8→int32 accumulate with fixed-point
//     requantization. Integer arithmetic is exact, so results are bitwise
//     identical at any batch size and worker count, and identical to the
//     FPGA kernel's arithmetic by construction (the kernel's cycle cost is
//     fpga.Report.TotalCycles per background pass).
//
// The int8 backend requires a bundle quantized with adapttrain -quantize
// (models.Bundle.Int8 non-nil).
type Backend string

const (
	// BackendFloat32 is the default full-precision software path.
	BackendFloat32 Backend = "float32"
	// BackendInt8 is the batched integer inference path.
	BackendInt8 Backend = "int8"
)

// Backends lists the valid backend names, for flag help text.
var Backends = []Backend{BackendFloat32, BackendInt8}

// ParseBackend validates a backend name from a flag or config; the empty
// string means BackendFloat32.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendFloat32:
		return BackendFloat32, nil
	case BackendInt8:
		return BackendInt8, nil
	}
	return "", fmt.Errorf("unknown inference backend %q (want float32 or int8)", s)
}

// NewClassifier builds the background classifier implementing backend b
// over bundle's models. A nil bundle returns (nil, nil): the pipeline runs
// no-ML regardless of backend. The int8 backend requires a quantized
// bundle.
func NewClassifier(b Backend, bundle *models.Bundle) (BkgClassifier, error) {
	if bundle == nil {
		return nil, nil
	}
	switch b {
	case "", BackendFloat32:
		return FP32Classifier{Net: bundle.Bkg}, nil
	case BackendInt8:
		if bundle.Int8 == nil {
			return nil, fmt.Errorf("backend int8: bundle has no quantized model; train with adapttrain -quantize")
		}
		return bundle.Int8, nil
	}
	return nil, fmt.Errorf("unknown inference backend %q", b)
}

// ClassifierProbsInto evaluates cls on x into a caller-owned buffer, using
// the classifier's ProbsInto fast path when it has one. It is the one place
// callers outside the pipeline (the serving micro-batcher) should route
// backend-generic inference through.
func ClassifierProbsInto(cls BkgClassifier, x *nn.Tensor, out []float32) {
	if pi, ok := cls.(probsInto); ok {
		pi.ProbsInto(x, out)
		return
	}
	copy(out, cls.Probs(x))
}
