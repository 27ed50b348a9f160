// Package serve is the network serving layer over the localization
// pipeline: an HTTP service (adaptserve) that multiplexes many concurrent
// localization and classification requests through the race-clean parallel
// pipeline, coalescing their NN inference in a dynamic micro-batcher,
// bounding admission with explicit backpressure, and exposing the obs
// metrics registry as a Prometheus endpoint.
package serve

import (
	"sync"
	"time"

	"repro/adapt"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Batcher coalesces single-output NN inference across concurrent callers:
// feature matrices submitted while a batch is open are concatenated and
// evaluated in one forward pass of the wrapped classifier — whichever
// inference backend the server was configured with (float32 or int8). A
// batch is flushed when its pending rows reach MaxRows (size trigger) or
// when the oldest pending submission has waited Window (deadline
// trigger). Because every backend is row-independent at
// inference time (the FP32 layers per-row, the integer GEMM exactly),
// each caller's probabilities are bitwise identical to an unbatched
// evaluation — batching trades a bounded latency (≤ Window) for
// cross-request throughput without touching results. The coalesced rows
// are also what makes the int8 backend pay off: one requantization setup
// amortizes over every row of the combined batch.
//
// Batcher implements the pipeline's BkgClassifier contract (Probs) and its
// ProbsInto fast path, so it can be injected into a run via
// adapt.Instrument.LocalizeEventsWithClassifier.
type Batcher struct {
	cls     adapt.BkgClassifier
	maxRows int
	window  time.Duration
	metrics *obs.Registry

	mu      sync.Mutex
	pending []batchItem
	rows    int
	timer   *time.Timer
	closed  bool
}

// batchItem is one caller's submission: its feature rows, the caller-owned
// output slice, and the channel closed once the outputs are written.
type batchItem struct {
	x    *nn.Tensor
	out  []float32
	done chan struct{}
}

// Batching defaults.
const (
	// DefaultBatchRows flushes a batch once this many rows are pending.
	// A typical request contributes ~600 rows per classifier pass (the
	// paper's mean first-pass ring count is 597), so the trigger is sized
	// for a few concurrent requests to coalesce; a lone request flushes by
	// window instead.
	DefaultBatchRows = 2048
	// DefaultBatchWindow bounds how long a submission waits for the batch
	// to fill.
	DefaultBatchWindow = 2 * time.Millisecond
)

// NewBatcher wraps a backend classifier. maxRows <= 0 means
// DefaultBatchRows; window <= 0 means DefaultBatchWindow. metrics may be
// nil.
func NewBatcher(cls adapt.BkgClassifier, maxRows int, window time.Duration, metrics *obs.Registry) *Batcher {
	if maxRows <= 0 {
		maxRows = DefaultBatchRows
	}
	if window <= 0 {
		window = DefaultBatchWindow
	}
	return &Batcher{cls: cls, maxRows: maxRows, window: window, metrics: metrics}
}

// Probs implements pipeline.BkgClassifier.
func (b *Batcher) Probs(x *nn.Tensor) []float32 {
	out := make([]float32, x.Rows)
	b.ProbsInto(x, out)
	return out
}

// ProbsInto submits x for batched inference and blocks until out holds one
// probability per row. Submissions already at or above the size trigger,
// and submissions after Close, are evaluated directly.
func (b *Batcher) ProbsInto(x *nn.Tensor, out []float32) {
	if x.Rows == 0 {
		return
	}
	b.mu.Lock()
	if b.closed || x.Rows >= b.maxRows {
		b.mu.Unlock()
		b.metrics.Counter("serve_nn_direct").Inc()
		adapt.ClassifierProbsInto(b.cls, x, out)
		return
	}
	item := batchItem{x: x, out: out, done: make(chan struct{})}
	b.pending = append(b.pending, item)
	b.rows += x.Rows
	if b.rows >= b.maxRows {
		batch := b.takeLocked()
		b.mu.Unlock()
		b.metrics.Counter("serve_nn_flush_size").Inc()
		b.run(batch)
		return // our item was part of the flushed batch
	}
	if b.timer == nil {
		b.timer = time.AfterFunc(b.window, b.flushWindow)
	}
	b.mu.Unlock()
	<-item.done
}

// takeLocked detaches the pending batch. Callers hold b.mu.
func (b *Batcher) takeLocked() []batchItem {
	batch := b.pending
	b.pending = nil
	b.rows = 0
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// flushWindow is the deadline trigger, run on the timer goroutine.
func (b *Batcher) flushWindow() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.metrics.Counter("serve_nn_flush_window").Inc()
		b.run(batch)
	}
}

// run evaluates one detached batch and distributes the outputs.
func (b *Batcher) run(batch []batchItem) {
	stop := b.metrics.StartStage("serve_nn_batch")
	defer stop()
	b.metrics.Counter("serve_nn_batches").Inc()
	if len(batch) == 1 {
		it := batch[0]
		b.metrics.Counter("serve_nn_batch_rows").Add(int64(it.x.Rows))
		adapt.ClassifierProbsInto(b.cls, it.x, it.out)
		close(it.done)
		return
	}
	cols := batch[0].x.Cols
	total := 0
	for _, it := range batch {
		if it.x.Cols != cols {
			panic("serve: batcher fed tensors of mismatched width")
		}
		total += it.x.Rows
	}
	b.metrics.Counter("serve_nn_batch_rows").Add(int64(total))
	b.metrics.Counter("serve_nn_coalesced").Add(int64(len(batch)))
	x := nn.NewTensor(total, cols)
	off := 0
	for _, it := range batch {
		copy(x.Data[off*cols:], it.x.Data[:it.x.Rows*cols])
		off += it.x.Rows
	}
	probs := make([]float32, total)
	adapt.ClassifierProbsInto(b.cls, x, probs)
	off = 0
	for _, it := range batch {
		copy(it.out, probs[off:off+it.x.Rows])
		off += it.x.Rows
		close(it.done)
	}
}

// Close flushes any pending batch and makes future submissions evaluate
// directly (unbatched). In-flight holders of a superseded Batcher — e.g.
// requests that captured a model set just before a hot reload — therefore
// still complete correctly after the registry moves on.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.run(batch)
	}
}
