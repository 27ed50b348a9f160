// Package par is the shared worker-pool substrate for the repository's hot
// paths (localization grid search, pipeline NN sharding, campaign trial
// fan-out). It exists so every parallel site follows the same discipline:
//
//   - bounded goroutines: a Pool never runs more than Workers goroutines at
//     once, so nested parallel stages cannot oversubscribe the machine;
//   - chunked index ranges: work over [0, n) is split into one contiguous
//     subrange per shard with a FIXED shard→subrange mapping (shard s always
//     owns the same indices for a given n and worker count), so results can
//     be written into preallocated slots without locks;
//   - context cancellation: shards that have not started when the context is
//     cancelled never run, and the error is reported to the caller;
//   - panic propagation: a panic in any shard is re-raised in the calling
//     goroutine instead of crashing the process from a detached goroutine.
//
// Determinism is a hard requirement of the reproduction (tier-1 tests pin
// exact localization outputs per seed), which is why the package offers
// only fixed-assignment data parallelism and no work stealing: a stealing
// scheduler would make the shard→index mapping depend on timing.
package par

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers is the process-wide parallelism default used when a Pool
// is constructed with workers <= 0. Zero means runtime.GOMAXPROCS(0).
var defaultWorkers atomic.Int64

// SetDefaultWorkers sets the process-wide default worker count used by
// NewPool(0). n <= 0 restores the GOMAXPROCS default. Command-line tools
// wire their -parallelism flag here so library code picks it up without
// plumbing a value through every call site.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// DefaultWorkers reports the current process-wide default parallelism.
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Pool is a bounded parallelism budget. The zero value and nil are both
// valid and mean "the process default": all methods work on a nil *Pool.
// A Pool is cheap (no resident goroutines — workers are spawned per call
// and bounded by Workers()), so constructing one per pipeline run is fine.
type Pool struct {
	workers int
}

// NewPool returns a pool bounded to the given number of concurrent
// goroutines. workers <= 0 means DefaultWorkers().
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = 0
	}
	return &Pool{workers: workers}
}

// Workers reports the pool's concurrency bound (always >= 1).
func (p *Pool) Workers() int {
	if p == nil || p.workers <= 0 {
		return DefaultWorkers()
	}
	return p.workers
}

// Shards reports how many shards ForRange will use for n items:
// min(Workers, n), at least 1 for n > 0.
func (p *Pool) Shards(n int) int {
	s := p.Workers()
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

// shardRange returns the fixed contiguous subrange [lo, hi) owned by shard
// s when n items are split into shards chunks.
func shardRange(n, shards, s int) (lo, hi int) {
	chunk := (n + shards - 1) / shards
	lo = s * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// panicValue carries a recovered panic from a shard goroutine back to the
// calling goroutine.
type panicValue struct {
	shard int
	value any
}

// ForRange calls fn once per shard, concurrently, with the shard index and
// the fixed subrange [lo, hi) of [0, n) it owns. It blocks until every
// started shard returns. If ctx is cancelled, shards that have not started
// are skipped and ctx.Err() is returned (shards already running are not
// interrupted; long-running fn bodies should poll ctx themselves). A panic
// inside fn is re-raised in the caller after all shards settle.
//
// fn must not assume shards run in any order, but may assume no two calls
// overlap in index range, so writing to disjoint slots of a shared slice
// needs no locking.
func (p *Pool) ForRange(ctx context.Context, n int, fn func(shard, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	shards := p.Shards(n)
	if shards == 1 {
		// Serial fast path: no goroutine, panics propagate natively.
		if err := ctx.Err(); err != nil {
			return err
		}
		fn(0, 0, n)
		return nil
	}

	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicValue]
	)
	for s := 0; s < shards; s++ {
		lo, hi := shardRange(n, shards, s)
		if lo >= hi {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &panicValue{shard: s, value: r})
				}
			}()
			if ctx.Err() != nil {
				return
			}
			fn(s, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(fmt.Sprintf("par: shard %d panicked: %v", pv.shard, pv.value))
	}
	return ctx.Err()
}

// ForEach runs fn(i) for every i in [0, n) across the pool's shards. It is
// ForRange with the inner index loop written for the caller.
func (p *Pool) ForEach(ctx context.Context, n int, fn func(i int)) error {
	return p.ForRange(ctx, n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}
