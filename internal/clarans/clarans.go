// Package clarans implements CLARANS (Ng & Han — VLDB 1994), the
// non-projected k-medoids algorithm the SSPC paper uses as the full-space
// reference in its evaluation. CLARANS searches the graph of medoid sets by
// repeatedly trying random single-medoid swaps, restarting from a fresh
// random medoid set numlocal times.
package clarans

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Options configures a CLARANS run.
type Options struct {
	// K is the number of clusters.
	K int
	// NumLocal is the number of random restarts; MaxNeighbor the number of
	// consecutive non-improving random swaps that declare a local optimum.
	// Zero values take the paper's defaults (2 and max(250,
	// 0.0125·K·(N−K))).
	NumLocal    int
	MaxNeighbor int
	Seed        int64

	// Restarts, when > 0, overrides NumLocal — it is the same knob under
	// the name every other package in this repository uses. Each restart
	// (local search) derives its RNG from engine.ChildSeed(Seed, r).
	Restarts int

	// Workers bounds how many local searches run concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). The worker count never changes the result.
	// After the local searches finish, the full budget parallelizes the
	// final chunked assignment scan. (The swap-cost loop inside a local
	// search stays serial: its running sum is order-sensitive floating
	// point.)
	Workers int
}

// DefaultOptions returns the paper's recommended parameters.
func DefaultOptions(k int) Options { return Options{K: k, NumLocal: 2} }

// localOptimum is the outcome of one randomized local search.
type localOptimum struct {
	medoids    []int
	cost       float64
	iterations int
}

// RunContext executes CLARANS with full-dimensional Euclidean distance. The
// NumLocal (or Restarts) local searches run concurrently on up to Workers
// goroutines through the restart engine; the lowest-cost local optimum wins,
// with ties going to the lowest restart index, so the result is a pure
// function of (ds, opts) regardless of the worker count.
//
// Cancellation is checked at every local search launch, every swap trial
// inside a search, and every chunk boundary of the final assignment scan, so
// a canceled run returns context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("clarans: nil dataset")
	}
	n := ds.N()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("clarans: K = %d out of range", opts.K)
	}
	numLocal := opts.NumLocal
	if opts.Restarts > 0 {
		numLocal = opts.Restarts
	}
	if numLocal <= 0 {
		numLocal = 2
	}
	if opts.MaxNeighbor <= 0 {
		opts.MaxNeighbor = int(0.0125 * float64(opts.K) * float64(n-opts.K))
		if opts.MaxNeighbor < 250 {
			opts.MaxNeighbor = 250
		}
	}

	locals, err := engine.Run(ctx, numLocal, opts.Workers, opts.Seed, 0, nil,
		func(_ int, rng *stats.RNG, _ int) (localOptimum, error) {
			return localSearch(ctx, ds, opts, rng)
		})
	if err != nil {
		return nil, err
	}
	best := locals[engine.Best(locals, func(a, b localOptimum) bool {
		return a.cost < b.cost
	})]
	iterations := 0
	for _, l := range locals {
		iterations += l.iterations
	}

	// Final assignment: per-point nearest medoid, chunked over point ranges
	// with disjoint writes — the whole worker budget is free again once the
	// local searches have finished.
	assign := make([]int, n)
	if err := engine.ParallelChunksCtx(ctx, n, 0, engine.DefaultWorkers(opts.Workers), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			bestDist := math.Inf(1)
			for i, m := range best.medoids {
				if d := ds.EuclideanSq(p, m, nil); d < bestDist {
					bestDist = d
					assign[p] = i
				}
			}
		}
	}); err != nil {
		return nil, err
	}
	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Score:               best.cost,
		ScoreHigherIsBetter: false,
		Iterations:          iterations,
	}
	if err := res.Validate(n, ds.D()); err != nil {
		return nil, fmt.Errorf("clarans: internal result invalid: %w", err)
	}
	return res, nil
}

// localSearch runs one local search: from a random medoid set, try random
// single-medoid swaps until MaxNeighbor consecutive swaps fail to improve
// the cost.
func localSearch(ctx context.Context, ds *dataset.Dataset, opts Options, rng *stats.RNG) (localOptimum, error) {
	n := ds.N()
	medoids := rng.Sample(n, opts.K)
	cost := totalCost(ds, medoids)
	tries := 0
	iterations := 0
	for tries < opts.MaxNeighbor {
		if err := engine.Cause(ctx); err != nil {
			return localOptimum{}, err
		}
		iterations++
		// Random neighbor: replace one random medoid with one random
		// non-medoid.
		mi := rng.Intn(opts.K)
		candidate := rng.Intn(n)
		if containsInt(medoids, candidate) {
			continue
		}
		old := medoids[mi]
		medoids[mi] = candidate
		newCost := totalCost(ds, medoids)
		if newCost < cost {
			cost = newCost
			tries = 0
		} else {
			medoids[mi] = old
			tries++
		}
	}
	return localOptimum{medoids: medoids, cost: cost, iterations: iterations}, nil
}

// totalCost is the sum over objects of the distance to the nearest medoid.
func totalCost(ds *dataset.Dataset, medoids []int) float64 {
	total := 0.0
	for p := 0; p < ds.N(); p++ {
		best := math.Inf(1)
		for _, m := range medoids {
			if d := ds.EuclideanSq(p, m, nil); d < best {
				best = d
			}
		}
		total += math.Sqrt(best)
	}
	return total
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
