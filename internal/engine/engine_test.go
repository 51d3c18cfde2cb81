package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestChildSeedRestartZeroIsBase(t *testing.T) {
	for _, base := range []int64{0, 1, -7, 1 << 40} {
		if got := ChildSeed(base, 0); got != base {
			t.Errorf("ChildSeed(%d, 0) = %d, want the base seed", base, got)
		}
	}
}

func TestChildSeedsDecorrelated(t *testing.T) {
	seen := make(map[int64]int)
	for r := 0; r < 1000; r++ {
		s := ChildSeed(42, r)
		if prev, dup := seen[s]; dup {
			t.Fatalf("restarts %d and %d share seed %d", prev, r, s)
		}
		seen[s] = r
	}
	// Nearby bases must not produce overlapping child streams.
	for r := 1; r < 1000; r++ {
		if ChildSeed(42, r) == ChildSeed(43, r) {
			t.Fatalf("bases 42 and 43 collide at restart %d", r)
		}
	}
}

func TestRunPreservesRestartOrder(t *testing.T) {
	results, err := Run(context.Background(), 50, 8, 1, 0, nil, func(r int, _ *stats.RNG, _ int) (int, error) {
		return r * r, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != r*r {
			t.Fatalf("results[%d] = %d, want %d", r, v, r*r)
		}
	}
}

// TestRunWorkerCountInvariant is the engine's core guarantee: the same seed
// yields byte-identical results for any worker count, even when each restart
// consumes a different number of random draws.
func TestRunWorkerCountInvariant(t *testing.T) {
	draw := func(r int, rng *stats.RNG, _ int) ([]float64, error) {
		out := make([]float64, 3+r%5)
		for i := range out {
			out[i] = rng.Float64()
		}
		return out, nil
	}
	serial, err := Run(context.Background(), 40, 1, 99, 0, nil, draw)
	if err != nil {
		t.Fatal(err)
	}
	// Every plateau <= 0 disables the early stop.
	for _, plateau := range []int{0, -1} {
		for _, workers := range []int{2, 4, 8, 40} {
			parallel, err := Run(context.Background(), 40, workers, 99, plateau, nil, draw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("plateau=%d workers=%d diverged from workers=1", plateau, workers)
			}
		}
	}
}

func TestRunDifferentSeedsDiffer(t *testing.T) {
	draw := func(r int, rng *stats.RNG, _ int) (float64, error) { return rng.Float64(), nil }
	a, err := Run(context.Background(), 8, 4, 1, 0, nil, draw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), 8, 4, 2, 0, nil, draw)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 produced identical restart streams")
	}
}

func TestRunBoundedConcurrency(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	_, err := Run(context.Background(), 64, workers, 1, 0, nil, func(r int, _ *stats.RNG, _ int) (int, error) {
		cur := active.Add(1)
		defer active.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent restarts, bound is %d", p, workers)
	}
}

func TestRunFirstErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom")
	for _, workers := range []int{1, 8} {
		_, err := Run(context.Background(), 32, workers, 1, 0, nil, func(r int, _ *stats.RNG, _ int) (int, error) {
			if r >= 5 {
				return 0, fmt.Errorf("%w at %d", sentinel, r)
			}
			return r, nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: error %v does not wrap the restart failure", workers, err)
		}
	}
}

// TestRunFailureStopsLaunches: without early stop every launch token is
// issued up front, so only the failure itself can keep the pool from
// working through the whole schedule. Restart 3 fails at once while every
// other restart takes a millisecond, and restart 0 also holds the in-order
// consumer until 100 restarts have launched or 200 ms have passed: the
// failing restart must stop new launches on its own, long before the 2.5 s
// the 10000 restarts would take on 4 workers.
func TestRunFailureStopsLaunches(t *testing.T) {
	const n = 10000
	sentinel := errors.New("boom")
	var launched atomic.Int64
	_, err := Run(context.Background(), n, 4, 1, 0, nil, func(r int, _ *stats.RNG, _ int) (int, error) {
		launched.Add(1)
		switch r {
		case 0:
			for deadline := time.Now().Add(200 * time.Millisecond); launched.Load() < 100 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
		case 3:
			return 0, sentinel
		}
		time.Sleep(time.Millisecond)
		return r, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the failure of restart 3", err)
	}
	if l := launched.Load(); l >= 100 {
		t.Fatalf("launched %d of %d restarts after restart 3 failed", l, n)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var completed atomic.Int64
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, 1000, 2, 1, 0, nil, func(r int, _ *stats.RNG, _ int) (int, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			completed.Add(1)
			return r, nil
		})
		done <- err
	}()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := completed.Load(); n >= 1000 {
		t.Fatalf("all restarts ran despite cancellation")
	}
}

func TestRunZeroRestarts(t *testing.T) {
	results, err := Run(context.Background(), 0, 4, 1, 0, nil, func(r int, _ *stats.RNG, _ int) (int, error) {
		t.Fatal("restart function called for n=0")
		return 0, nil
	})
	if err != nil || results != nil {
		t.Fatalf("Run(n=0) = (%v, %v), want (nil, nil)", results, err)
	}
}

func TestRunNilFunction(t *testing.T) {
	if _, err := Run[int](context.Background(), 3, 2, 1, 0, nil, nil); err == nil {
		t.Fatal("nil restart function accepted")
	}
}

// TestSplitBudgetSplit pins the split of the worker budget W between n
// restarts: min(W, n) restarts run at once and each receives
// intra = ceil(W / min(W, n)) for its inner loops.
func TestSplitBudgetSplit(t *testing.T) {
	cases := []struct {
		n, workers, want int
	}{
		{1, 8, 8}, // single restart: the whole budget goes inside
		{1, 4, 4},
		{8, 8, 1}, // one worker per restart
		{4, 8, 2}, // even split
		{3, 8, 3}, // ceil(8/3): round up, don't strand budget
		{8, 2, 1},
		{5, 1, 1}, // serial stays serial
		{1, 0, DefaultWorkers(0)},
	}
	for _, c := range cases {
		got, err := Run(context.Background(), c.n, c.workers, 1, 0, nil, func(_ int, _ *stats.RNG, intra int) (int, error) {
			return intra, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for r, intra := range got {
			if intra != c.want {
				t.Errorf("n=%d workers=%d: restart %d got intra %d, want %d", c.n, c.workers, r, intra, c.want)
			}
		}
	}
}

func TestBestTiesKeepLowestIndex(t *testing.T) {
	idx := Best([]int{3, 7, 7, 1}, func(a, b int) bool { return a > b })
	if idx != 1 {
		t.Fatalf("Best = %d, want 1 (first of the tied maxima)", idx)
	}
	if Best(nil, func(a, b int) bool { return a > b }) != -1 {
		t.Fatal("Best(empty) != -1")
	}
}

// TestConcurrentRuns exercises several engine runs racing each other (for
// the -race build): the engine must not share any state across calls.
func TestConcurrentRuns(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			results, err := Run(context.Background(), 20, 4, seed, 0, nil, func(r int, rng *stats.RNG, _ int) (float64, error) {
				return rng.Float64(), nil
			})
			if err != nil || len(results) != 20 {
				t.Errorf("seed %d: %v (%d results)", seed, err, len(results))
			}
		}(int64(i))
	}
	wg.Wait()
}
