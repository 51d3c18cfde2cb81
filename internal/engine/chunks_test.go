package engine

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
)

// parallelChunks is ParallelChunksCtx over context.Background(), failing the
// test on an error.
func parallelChunks(t *testing.T, total, chunkSize, workers int, fn func(worker, lo, hi int)) {
	t.Helper()
	if err := ParallelChunksCtx(context.Background(), total, chunkSize, workers, fn); err != nil {
		t.Fatalf("ParallelChunksCtx: %v", err)
	}
}

// TestScratchUnderParallelChunks: a chunk's worker index names a slot
// that one goroutine owns for the duration of the call, so per-slot scratch
// in a plain slice needs no lock (meaningful under -race). Every chunk
// marks its slot busy while it runs; a second chunk on the same slot at
// the same time would find it marked.
func TestScratchUnderParallelChunks(t *testing.T) {
	const workers = 4
	busy := make([]atomic.Bool, workers)
	scratch := make([][]int, workers)
	for w := range scratch {
		scratch[w] = make([]int, 100)
	}
	parallelChunks(t, 1000, 7, workers, func(w, lo, hi int) {
		if busy[w].Swap(true) {
			t.Errorf("worker slot %d entered by two chunks at once", w)
		}
		buf := scratch[w]
		for i := lo; i < hi; i++ {
			buf[i%len(buf)]++
		}
		busy[w].Store(false)
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
