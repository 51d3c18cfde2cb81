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
