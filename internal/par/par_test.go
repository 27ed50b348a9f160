package par

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolSizing(t *testing.T) {
	if got := NewPool(3).Workers(); got != 3 {
		t.Errorf("NewPool(3).Workers() = %d, want 3", got)
	}
	if got := NewPool(0).Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0).Workers() = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}
	var nilPool *Pool
	if got := nilPool.Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("nil pool Workers() = %d, want GOMAXPROCS=%d", got, runtime.GOMAXPROCS(0))
	}

	SetDefaultWorkers(5)
	defer SetDefaultWorkers(0)
	if got := NewPool(0).Workers(); got != 5 {
		t.Errorf("after SetDefaultWorkers(5): Workers() = %d, want 5", got)
	}
	// An explicit bound is unaffected by the process default.
	if got := NewPool(2).Workers(); got != 2 {
		t.Errorf("NewPool(2).Workers() = %d, want 2", got)
	}

	// Shards never exceed the item count.
	if got := NewPool(8).Shards(3); got != 3 {
		t.Errorf("Shards(3) with 8 workers = %d, want 3", got)
	}
	if got := NewPool(2).Shards(100); got != 2 {
		t.Errorf("Shards(100) with 2 workers = %d, want 2", got)
	}
}

func TestShardRangesPartition(t *testing.T) {
	// The fixed shard→subrange mapping must tile [0, n) exactly, in order,
	// for any (n, shards) combination.
	for n := 0; n <= 40; n++ {
		for shards := 1; shards <= 9; shards++ {
			next := 0
			for s := 0; s < shards; s++ {
				lo, hi := shardRange(n, shards, s)
				if lo != next && lo < hi {
					t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", n, shards, s, lo, next)
				}
				if hi > n {
					t.Fatalf("n=%d shards=%d: shard %d ends at %d > n", n, shards, s, hi)
				}
				if lo < hi {
					next = hi
				}
			}
			if next != n {
				t.Fatalf("n=%d shards=%d: shards cover [0,%d), want [0,%d)", n, shards, next, n)
			}
		}
	}
}

func TestForRangeCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		const n = 1000
		hits := make([]int32, n)
		err := NewPool(workers).ForRange(context.Background(), n, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestForRangeBoundedGoroutines(t *testing.T) {
	const workers = 4
	var cur, max atomic.Int32
	err := NewPool(workers).ForRange(context.Background(), 1000, func(_, lo, hi int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		for i := 0; i < 1000; i++ { // dwell so shards overlap
			runtime.Gosched()
		}
		cur.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent shards, bound is %d", m, workers)
	}
}

func TestForRangeCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := atomic.Int32{}
	err := NewPool(4).ForRange(ctx, 100, func(_, lo, hi int) { ran.Add(1) })
	if err != context.Canceled {
		t.Errorf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	if ran.Load() != 0 {
		t.Errorf("pre-cancelled ctx: %d shards ran, want 0", ran.Load())
	}

	// Cancelling mid-run: shards that started finish, the error surfaces.
	ctx2, cancel2 := context.WithCancel(context.Background())
	var once sync.Once
	err = NewPool(2).ForRange(ctx2, 10, func(_, lo, hi int) {
		once.Do(cancel2)
	})
	if err != context.Canceled {
		t.Errorf("mid-run cancel: err = %v, want context.Canceled", err)
	}
}

func TestForRangePanicPropagation(t *testing.T) {
	for _, workers := range []int{1, 4} { // serial fast path and parallel path
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("workers=%d: panic did not propagate", workers)
					return
				}
				if workers > 1 {
					if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
						t.Errorf("workers=%d: recovered %v, want message containing 'boom'", workers, r)
					}
				}
			}()
			NewPool(workers).ForRange(context.Background(), 100, func(_, lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForEach(t *testing.T) {
	const n = 257
	var sum atomic.Int64
	if err := NewPool(3).ForEach(context.Background(), n, func(i int) { sum.Add(int64(i)) }); err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForRangeEmpty(t *testing.T) {
	if err := NewPool(4).ForRange(context.Background(), 0, func(_, lo, hi int) {
		t.Error("fn called for n=0")
	}); err != nil {
		t.Fatal(err)
	}
}
