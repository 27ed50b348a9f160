// Package modelstest trains the small quantized model bundle that the
// backend tests of several packages share.
package modelstest

import (
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/models"
)

var (
	mu      sync.Mutex
	bundles = map[uint64]*models.Bundle{}
)

// QuantBundle returns a small bundle, trained on the swapped architecture,
// with a PTQ-quantized background net. seed seeds the dataset, seed+1 the
// training and seed+2 the quantization; each seed trains once per test
// binary.
func QuantBundle(t testing.TB, seed uint64) *models.Bundle {
	t.Helper()
	mu.Lock()
	defer mu.Unlock()
	if b := bundles[seed]; b != nil {
		return b
	}
	cfg := datagen.DefaultConfig(seed)
	cfg.BurstsPerAngle = 1
	cfg.PolarAnglesDeg = []float64{0, 40, 80}
	set := datagen.Generate(cfg)
	opts := models.DefaultTrainOptions(seed + 1)
	opts.MaxEpochs = 4
	opts.BkgLR = 5e-3
	opts.BkgBatch = 512
	opts.Swapped = true
	b := models.Train(set, opts)
	qopts := models.DefaultQuantizeOptions(seed + 2)
	qopts.Mode = models.ModePTQ
	int8net, _, err := models.QuantizeBackground(b, set, qopts)
	if err != nil {
		t.Fatal(err)
	}
	b.Int8 = int8net
	bundles[seed] = b
	return b
}
