package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/adapt"
	"repro/internal/models"
	"repro/internal/obs"
)

// modelSet is one immutable generation of serving models: a bundle plus the
// micro-batcher bound to its background network. Requests capture the
// current generation at admission and keep it for their whole run, so a hot
// reload never mixes one generation's network with another's thresholds.
type modelSet struct {
	bundle  *models.Bundle
	batcher *Batcher
	// path records where the bundle came from, for /admin/reload replies.
	path string
	// loaded is when this generation was installed.
	loaded time.Time
	// gen numbers this generation: 0 for the initial empty set, then one
	// per install. Responses carry it (X-Adapt-Model-Generation) and
	// /readyz reports it, so a fleet front door can key an exact result
	// cache on which weights actually produced a body.
	gen uint64
}

// classifier returns the batcher as the pipeline's background classifier,
// or a nil interface for the no-ML generation (a typed-nil would defeat the
// pipeline's `override == nil` fallback).
func (m *modelSet) classifier() adapt.BkgClassifier {
	if m == nil || m.bundle == nil {
		return nil
	}
	return m.batcher
}

// modelStore is the server's model registry: an atomically swappable
// modelSet. Swap installs a new generation without blocking readers;
// the superseded generation's batcher is closed (flushing its pending
// batch) but keeps serving direct inference to requests that captured it.
// The store is pinned to one inference backend for its lifetime — a hot
// reload swaps the weights, never the arithmetic, so a fleet's /version
// answer stays truthful across reloads.
type modelStore struct {
	cur        atomic.Pointer[modelSet]
	backend    adapt.Backend
	newBatcher func(cls adapt.BkgClassifier) *Batcher
	metrics    *obs.Registry
	// genc issues generation numbers; install n gets generation n.
	genc atomic.Uint64
	// reloadMu serializes reloads so two concurrent /admin/reload calls
	// cannot interleave load-then-swap.
	reloadMu sync.Mutex
}

func newModelStore(backend adapt.Backend, newBatcher func(adapt.BkgClassifier) *Batcher, metrics *obs.Registry) *modelStore {
	s := &modelStore{backend: backend, newBatcher: newBatcher, metrics: metrics}
	s.cur.Store(&modelSet{})
	return s
}

// current returns the live generation (never nil).
func (s *modelStore) current() *modelSet { return s.cur.Load() }

// install makes bundle the live generation. A nil bundle switches the
// service to the no-ML pipeline. It fails — leaving the previous
// generation live — when the bundle cannot implement the store's backend
// (int8 without a quantized model).
func (s *modelStore) install(bundle *models.Bundle, path string) error {
	set := &modelSet{bundle: bundle, path: path, loaded: time.Now(), gen: s.genc.Add(1)}
	if bundle != nil {
		cls, err := adapt.NewClassifier(s.backend, bundle)
		if err != nil {
			return err
		}
		set.batcher = s.newBatcher(cls)
	}
	old := s.cur.Swap(set)
	if old != nil && old.batcher != nil {
		old.batcher.Close()
	}
	s.metrics.Counter("serve_model_reloads").Inc()
	return nil
}

// reload loads a bundle from path and installs it.
func (s *modelStore) reload(path string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	bundle, err := adapt.LoadModels(path)
	if err != nil {
		return fmt.Errorf("load models from %s: %w", path, err)
	}
	return s.install(bundle, path)
}
