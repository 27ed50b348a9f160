package models

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/features"
	"repro/internal/nn"
	"repro/internal/nn/quant"
	"repro/internal/xrand"
)

// bundleFile is the on-disk representation of a Bundle. The Int8 pair was
// added after the first release: gob zeroes absent fields, so bundles
// written by older builds decode with HasInt8 false, and older builds
// ignore the new fields in bundles written by this one. Int8 is a value
// (not a pointer) so a quantization-free bundle never makes gob flatten a
// nil pointer.
type bundleFile struct {
	WithPolar   bool
	Swapped     bool
	BkgState    nn.State
	DEtaState   nn.State
	BkgNorm     features.Normalizer
	DEtaNorm    features.Normalizer
	Thr         Thresholds
	DEtaScale   float64
	BkgTestAcc  float64
	DEtaTestMSE float64
	HasInt8     bool
	Int8        quant.Int8Net
}

// Save writes the bundle with gob encoding.
func (b *Bundle) Save(w io.Writer) error {
	swapped := isSwapped(b.Bkg)
	f := bundleFile{
		WithPolar:   b.WithPolar,
		Swapped:     swapped,
		BkgState:    b.Bkg.ExportState(),
		DEtaState:   b.DEta.ExportState(),
		BkgNorm:     *b.BkgNorm,
		DEtaNorm:    *b.DEtaNorm,
		Thr:         *b.Thr,
		DEtaScale:   b.DEtaScale,
		BkgTestAcc:  b.BkgTestAcc,
		DEtaTestMSE: b.DEtaTestMSE,
	}
	if b.Int8 != nil {
		f.HasInt8 = true
		f.Int8 = *b.Int8
	}
	return gob.NewEncoder(w).Encode(f)
}

// isSwapped detects the fusion-friendly layer order (first layer Linear
// rather than BatchNorm).
func isSwapped(net *nn.Sequential) bool {
	if len(net.Layers) == 0 {
		return false
	}
	_, ok := net.Layers[0].(*nn.Linear)
	return ok
}

// LoadBundle reads a bundle written by Save, rebuilding the architectures.
func LoadBundle(r io.Reader) (*Bundle, error) {
	var f bundleFile
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("models: decode bundle: %w", err)
	}
	in := features.NumFeaturesNoPolar
	if f.WithPolar {
		in = features.NumFeatures
	}
	rng := xrand.New(0) // weights are overwritten by ImportState
	b := &Bundle{
		WithPolar:   f.WithPolar,
		BkgNorm:     &f.BkgNorm,
		DEtaNorm:    &f.DEtaNorm,
		Thr:         &f.Thr,
		DEtaScale:   f.DEtaScale,
		BkgTestAcc:  f.BkgTestAcc,
		DEtaTestMSE: f.DEtaTestMSE,
	}
	if f.Swapped {
		b.Bkg = NewBackgroundNetSwapped(in, rng)
	} else {
		b.Bkg = NewBackgroundNet(in, rng)
	}
	b.DEta = NewDEtaNet(in, rng)
	if err := b.Bkg.ImportState(f.BkgState); err != nil {
		return nil, fmt.Errorf("models: background net: %w", err)
	}
	if err := b.DEta.ImportState(f.DEtaState); err != nil {
		return nil, fmt.Errorf("models: dEta net: %w", err)
	}
	if f.HasInt8 {
		net := f.Int8
		if len(net.Layers) == 0 {
			return nil, fmt.Errorf("models: bundle claims a quantized model but has no layers")
		}
		// gob skips the unexported inference caches; rebuild them.
		net.Prepare()
		b.Int8 = &net
	}
	return b, nil
}

// SaveFile writes the bundle to path.
func (b *Bundle) SaveFile(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return b.Save(f)
}

// LoadBundleFile reads a bundle written by SaveFile.
func LoadBundleFile(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadBundle(f)
}
