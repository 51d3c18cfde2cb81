package engine

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// mapChunks is MapChunksIntoCtx over context.Background(), failing the test
// on an error (none can occur with faults disarmed).
func mapChunks[R any](t *testing.T, total, chunkSize, workers int, buf []R, fn func(worker, lo, hi int) R, fold func(acc, chunk R) R) R {
	t.Helper()
	r, err := MapChunksIntoCtx(context.Background(), total, chunkSize, workers, buf, fn, fold)
	if err != nil {
		t.Fatalf("MapChunksIntoCtx: %v", err)
	}
	return r
}

// parallelChunks is ParallelChunksCtx over context.Background(), failing the
// test on an error.
func parallelChunks(t *testing.T, total, chunkSize, workers int, fn func(worker, lo, hi int)) {
	t.Helper()
	if err := ParallelChunksCtx(context.Background(), total, chunkSize, workers, fn); err != nil {
		t.Fatalf("ParallelChunksCtx: %v", err)
	}
}

// TestMapChunksOrderedReduction: the fold visits chunks in ascending index
// order regardless of worker count, so list concatenation reproduces the
// serial order exactly.
func TestMapChunksOrderedReduction(t *testing.T) {
	const total = 137
	want := make([]int, total)
	for i := range want {
		want[i] = i * i
	}
	for _, chunkSize := range []int{0, 1, 7, 64, 1000} {
		for _, workers := range []int{1, 3, 8} {
			got := mapChunks(t, total, chunkSize, workers, nil, func(_, lo, hi int) []int {
				out := make([]int, 0, hi-lo)
				for i := lo; i < hi; i++ {
					out = append(out, i*i)
				}
				return out
			}, func(acc, chunk []int) []int { return append(acc, chunk...) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk=%d workers=%d: concatenation out of order", chunkSize, workers)
			}
		}
	}
}

// TestMapChunksWorkerCountInvariance: an order-sensitive floating-point fold
// returns bit-identical results for every worker count at a fixed chunk
// size — the reduction is serial even when the map ran parallel.
func TestMapChunksWorkerCountInvariance(t *testing.T) {
	sum := func(workers int) float64 {
		return mapChunks(t, 1000, 17, workers, nil, func(_, lo, hi int) float64 {
			s := 0.0
			for i := lo; i < hi; i++ {
				s += 1.0 / float64(i+1)
			}
			return s
		}, func(acc, chunk float64) float64 { return acc + chunk })
	}
	serial := sum(1)
	for _, workers := range []int{2, 4, 8} {
		if got := sum(workers); got != serial {
			t.Fatalf("workers=%d: %v != serial %v", workers, got, serial)
		}
	}
}

// TestMapChunksSingleChunkShortCircuit: a range that fits one chunk (the
// K=1 case of the cluster-chunked evaluation) returns fn's value directly —
// no fold call, no goroutines, worker slot 0 — at every worker count.
func TestMapChunksSingleChunkShortCircuit(t *testing.T) {
	for _, workers := range []int{1, 4} {
		calls := 0
		got := mapChunks(t, 1, 1, workers, nil, func(worker, lo, hi int) int {
			calls++
			if worker != 0 || lo != 0 || hi != 1 {
				t.Fatalf("workers=%d: fn(worker=%d, lo=%d, hi=%d), want (0, 0, 1)", workers, worker, lo, hi)
			}
			return 42
		}, func(acc, chunk int) int {
			t.Fatalf("workers=%d: fold called on a single-chunk range", workers)
			return 0
		})
		if got != 42 || calls != 1 {
			t.Fatalf("workers=%d: got %d after %d fn calls, want 42 after 1", workers, got, calls)
		}
	}
}

// TestMapChunksIntoBufferReuse: with a caller-owned buffer of sufficient
// capacity the multi-worker path writes the per-chunk results into that
// backing array (observable: every slot overwritten, sentinels gone) and the
// fold still matches the unbuffered call bit-for-bit; a too-small or nil buffer falls
// back to allocating and stale sentinel values never leak into the result.
func TestMapChunksIntoBufferReuse(t *testing.T) {
	const total, chunkSize, workers = 100, 10, 4
	const chunks = total / chunkSize
	fn := func(_, lo, hi int) float64 {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += 1.0 / float64(i+1)
		}
		return s
	}
	fold := func(acc, chunk float64) float64 { return acc + chunk }
	want := mapChunks(t, total, chunkSize, workers, nil, fn, fold)

	buf := make([]float64, chunks+3)
	for i := range buf {
		buf[i] = -1e308 // sentinel: must be overwritten, never folded
	}
	if got := mapChunks(t, total, chunkSize, workers, buf, fn, fold); got != want {
		t.Fatalf("MapChunksIntoCtx with reusable buffer = %v, want %v", got, want)
	}
	for c := 0; c < chunks; c++ {
		if buf[c] == -1e308 {
			t.Fatalf("buffer slot %d not overwritten — caller-owned buffer unused", c)
		}
		if got := fn(0, c*chunkSize, (c+1)*chunkSize); buf[c] != got {
			t.Fatalf("buffer slot %d = %v, want chunk value %v", c, buf[c], got)
		}
	}
	// A second call through the same buffer (the steady-state shape) agrees.
	if got := mapChunks(t, total, chunkSize, workers, buf, fn, fold); got != want {
		t.Fatalf("MapChunksIntoCtx on reused buffer = %v, want %v", got, want)
	}

	for _, small := range [][]float64{nil, make([]float64, chunks-1)} {
		for i := range small {
			small[i] = -1e308
		}
		if got := mapChunks(t, total, chunkSize, workers, small, fn, fold); got != want {
			t.Fatalf("MapChunksIntoCtx with cap-%d buffer = %v, want %v", cap(small), got, want)
		}
	}
}

// TestMapChunksEmpty: total <= 0 returns the zero value without calling fn.
func TestMapChunksEmpty(t *testing.T) {
	got := mapChunks(t, 0, 4, 2, nil, func(_, _, _ int) int {
		t.Error("fn called for empty range")
		return 1
	}, func(acc, chunk int) int { return acc + chunk })
	if got != 0 {
		t.Fatalf("MapChunksIntoCtx over empty range = %d, want 0", got)
	}
}

// TestScratchPerSlot: each slot is built exactly once, on first use, and
// slots hand out distinct values.
func TestScratchPerSlot(t *testing.T) {
	var builds atomic.Int64
	s := NewScratch(3, func() []int {
		builds.Add(1)
		return make([]int, 4)
	})
	if s.Slots() != 3 {
		t.Fatalf("Slots() = %d, want 3", s.Slots())
	}
	a, b := s.Get(0), s.Get(1)
	if &a[0] == &b[0] {
		t.Error("slots 0 and 1 share a buffer")
	}
	if got := s.Get(0); &got[0] != &a[0] {
		t.Error("slot 0 rebuilt on second Get")
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("build ran %d times for 2 used slots", n)
	}
	// Unused slot 2 never built; degenerate slot counts clamp to 1.
	if NewScratch(0, func() int { return 7 }).Slots() != 1 {
		t.Error("slots < 1 not clamped")
	}
}

// TestScratchUnderParallelChunks: the scratch pool is race-free when indexed
// by the worker slot of a chunked call (meaningful under -race).
func TestScratchUnderParallelChunks(t *testing.T) {
	const workers = 4
	s := NewScratch(workers, func() []int { return make([]int, 100) })
	parallelChunks(t, 1000, 7, workers, func(w, lo, hi int) {
		buf := s.Get(w)
		for i := lo; i < hi; i++ {
			buf[i%len(buf)]++
		}
	})
}

// TestParallelChunksShardSize: a positive chunkSize comes through unchanged
// — every chunk is exactly size elements (the last one shorter), whatever
// the worker count.
func TestParallelChunksShardSize(t *testing.T) {
	const total, size = 1000, 128
	for _, workers := range []int{1, 3, 8} {
		var mu sync.Mutex
		seen := map[int]int{}
		parallelChunks(t, total, size, workers, func(_, lo, hi int) {
			mu.Lock()
			seen[lo] = hi
			mu.Unlock()
		})
		if len(seen) != (total+size-1)/size {
			t.Fatalf("workers=%d: %d chunks, want one per %d elements", workers, len(seen), size)
		}
		for lo, hi := range seen {
			if lo%size != 0 || hi != min(lo+size, total) {
				t.Fatalf("workers=%d: chunk [%d,%d) is not %d elements", workers, lo, hi, size)
			}
		}
	}
}
