package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// streamScores is a deterministic restart function for the tests of Run's
// streaming mode (plateau > 0, the early stop): restart r yields scores[r] (higher is better). Restarts beyond the table
// fail the test — they must never be consumed.
func streamScores(scores []float64) func(r int, _ *stats.RNG, _ int) (float64, error) {
	return func(r int, _ *stats.RNG, _ int) (float64, error) {
		if r >= len(scores) {
			return 0, fmt.Errorf("restart %d beyond score table", r)
		}
		return scores[r], nil
	}
}

func higher(a, b float64) bool { return a > b }

// TestStreamPlateauStops checks the early-stop rule in index order: with
// scores improving at restarts 0 and 2 and a plateau window of 2, the stream
// must consume exactly restarts 0..4 (two non-improving restarts after the
// best at 2) for every worker count.
func TestStreamPlateauStops(t *testing.T) {
	scores := []float64{1, 0.5, 3, 2, 2.5, 9, 9, 9} // 5.. must be cut off
	for _, workers := range []int{1, 2, 4, 8} {
		got, err := Run(context.Background(), len(scores), workers, 1, 2, higher, streamScores(scores))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := scores[:5]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: consumed %v, want %v", workers, got, want)
		}
	}
}

// TestStreamNoPlateauRunsAll: monotonically improving scores never plateau,
// so the stream consumes every restart.
func TestStreamNoPlateauRunsAll(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5, 6}
	got, err := Run(context.Background(), len(scores), 4, 1, 1, higher, streamScores(scores))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, scores) {
		t.Fatalf("consumed %v, want all of %v", got, scores)
	}
}

// TestStreamWorkerCountInvariant: the consumed prefix is a pure function of
// (n, seed, plateau, fn) — byte-identical for every worker count — even when
// restarts consume different numbers of random draws.
func TestStreamWorkerCountInvariant(t *testing.T) {
	draw := func(r int, rng *stats.RNG, _ int) (float64, error) {
		v := rng.Float64()
		for i := 0; i < r%4; i++ {
			v = rng.Float64()
		}
		return v, nil
	}
	serial, err := Run(context.Background(), 40, 1, 99, 3, higher, draw)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8, 40} {
		parallel, err := Run(context.Background(), 40, workers, 99, 3, higher, draw)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial, parallel) {
			t.Fatalf("workers=%d: consumed %v, want %v", workers, parallel, serial)
		}
	}
}

// TestStreamCancelsRemainder verifies the producer side of the early stop:
// once the plateau is hit, restarts far beyond the stop point must never
// launch (workers may compute at most a bounded speculative overhang).
func TestStreamCancelsRemainder(t *testing.T) {
	const n = 10000
	const workers = 4
	var launched atomic.Int64
	scores := func(r int, _ *stats.RNG, _ int) (float64, error) {
		launched.Add(1)
		return -float64(r), nil // restart 0 is best; nothing ever improves
	}
	got, err := Run(context.Background(), n, workers, 1, 3, higher, scores)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("consumed %d restarts, want 4 (best at 0 + plateau 3)", len(got))
	}
	// The launch-token lookahead caps speculative work at workers+plateau
	// restarts beyond the consumed prefix.
	if l := launched.Load(); l > int64(4+workers+3) {
		t.Fatalf("launched %d restarts for a stream that stops at 4 (lookahead %d)", l, workers+3)
	}
}

// TestStreamErrorPropagation: a failing consumed restart surfaces with its
// index, for every worker count.
func TestStreamErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Run(context.Background(), 32, workers, 1, 5, higher,
			func(r int, _ *stats.RNG, _ int) (float64, error) {
				if r == 3 {
					return 0, sentinel
				}
				return float64(r), nil // improving, so the stream reaches 3
			})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want the restart failure", workers, err)
		}
	}
}

// TestStreamErrorBeyondStopDiscarded: failures past the stop point are
// speculative work and must not surface.
func TestStreamErrorBeyondStopDiscarded(t *testing.T) {
	scores := func(r int, _ *stats.RNG, _ int) (float64, error) {
		if r >= 6 {
			return 0, errors.New("speculative failure")
		}
		return -float64(r), nil // stops after restarts 0..2
	}
	got, err := Run(context.Background(), 64, 1, 1, 2, higher, scores)
	if err != nil {
		t.Fatalf("speculative failure surfaced: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("consumed %d restarts, want 3", len(got))
	}
}

// TestStreamContextCancellation: an external cancel stops the stream with
// ctx's error and without deadlocking the consumer.
func TestStreamContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, 1000, 2, 1, 50, higher, func(r int, _ *stats.RNG, _ int) (float64, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return float64(r), nil
		})
		done <- err
	}()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStreamEdgeCases(t *testing.T) {
	if _, err := Run[int](context.Background(), 3, 2, 1, 2, nil, func(int, *stats.RNG, int) (int, error) { return 0, nil }); err == nil {
		t.Error("nil better predicate accepted")
	}
	if _, err := Run[int](context.Background(), 3, 2, 1, 2, func(a, b int) bool { return a > b }, nil); err == nil {
		t.Error("nil restart function accepted")
	}
	res, err := Run(context.Background(), 0, 2, 1, 2, higher, streamScores(nil))
	if err != nil || res != nil {
		t.Errorf("Run(n=0) = (%v, %v), want (nil, nil)", res, err)
	}
}

// TestParallelChunksCoverage: every index is visited exactly once, for any
// (chunkSize, workers) combination. A positive chunkSize puts every chunk
// start on a chunkSize boundary; chunkSize <= 0 gives the engine-sized
// layout of min(total, 4·max(workers,1)) chunks whose sizes differ by at
// most one.
func TestParallelChunksCoverage(t *testing.T) {
	for _, total := range []int{0, 1, 7, 100, 1000} {
		for _, chunkSize := range []int{0, 1, 3, 64, 2000} {
			for _, workers := range []int{1, 3, 8} {
				visits := make([]atomic.Int64, total)
				var mu sync.Mutex
				var lens []int
				parallelChunks(t, total, chunkSize, workers, func(_, lo, hi int) {
					if lo < 0 || hi > total || lo >= hi {
						t.Errorf("bad chunk [%d,%d) for total %d", lo, hi, total)
					}
					if chunkSize > 0 && lo%chunkSize != 0 {
						t.Errorf("chunk start %d not on a %d boundary", lo, chunkSize)
					}
					mu.Lock()
					lens = append(lens, hi-lo)
					mu.Unlock()
					for i := lo; i < hi; i++ {
						visits[i].Add(1)
					}
				})
				for i := range visits {
					if n := visits[i].Load(); n != 1 {
						t.Fatalf("total=%d chunk=%d workers=%d: index %d visited %d times",
							total, chunkSize, workers, i, n)
					}
				}
				if chunkSize <= 0 && total > 0 {
					sort.Ints(lens)
					if want := min(total, 4*workers); len(lens) != want || lens[len(lens)-1]-lens[0] > 1 {
						t.Errorf("total=%d workers=%d: engine-sized chunk lengths %v, want %d near-equal chunks",
							total, workers, lens, want)
					}
				}
			}
		}
	}
}

// TestParallelChunksEngineSized: chunkSize 0 lets the engine size the chunks
// from the worker count — 100 elements on 4 workers are 16 chunks covering
// [0,100) exactly once.
func TestParallelChunksEngineSized(t *testing.T) {
	var mu sync.Mutex
	var ranges [][2]int
	parallelChunks(t, 100, 0, 4, func(_, lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	if len(ranges) != 16 {
		t.Fatalf("100 elements on 4 workers split into %d chunks, want 16", len(ranges))
	}
	sort.Slice(ranges, func(a, b int) bool { return ranges[a][0] < ranges[b][0] })
	next := 0
	for _, r := range ranges {
		if r[0] != next || r[1] <= r[0] {
			t.Fatalf("chunks %v do not tile [0,100)", ranges)
		}
		next = r[1]
	}
	if next != 100 {
		t.Fatalf("chunks %v stop at %d, want 100", ranges, next)
	}
}

// TestParallelChunksWorkerSlots: slot indices stay within [0, workers) so
// per-slot scratch arrays are safe, and two chunks never run on the same
// slot concurrently.
func TestParallelChunksWorkerSlots(t *testing.T) {
	const workers = 3
	busy := make([]atomic.Bool, workers)
	parallelChunks(t, 1000, 7, workers, func(w, lo, hi int) {
		if w < 0 || w >= workers {
			t.Errorf("worker slot %d out of [0,%d)", w, workers)
			return
		}
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("worker slot %d entered concurrently", w)
			return
		}
		defer busy[w].Store(false)
	})
}

// TestParallelChunksInline: the serial path must not spawn goroutines (same
// goroutine runs every chunk), keeping single-worker runs allocation- and
// scheduler-free.
func TestParallelChunksInline(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	parallelChunks(t, 10, 3, 1, func(w, lo, hi int) {
		mu.Lock()
		calls++
		mu.Unlock()
		if w != 0 {
			t.Errorf("serial path used slot %d", w)
		}
	})
	if calls != 4 {
		t.Fatalf("10/3 split into %d chunks, want 4", calls)
	}
}
