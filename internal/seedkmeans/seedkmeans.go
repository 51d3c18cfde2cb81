// Package seedkmeans implements Seeded-KMeans and Constrained-KMeans (Basu,
// Banerjee, Mooney — ICML 2002), the "semi-supervised clustering by
// seeding" methods the SSPC paper reviews as the simplest way of using
// labeled objects ([4] in §2.2). Labeled objects seed the initial
// centroids; in the constrained variant they additionally stay clamped to
// their class's cluster during every assignment step.
//
// Like COP-KMeans it operates in the full space, so it serves as the second
// semi-supervised non-projected reference in this repository. It runs its
// randomized restarts (the random centroids of unseeded clusters) through
// the shared restart engine and chunks the per-object assignment scan, under
// the repository-wide determinism contract: results are a pure function of
// (dataset, knowledge, options) for every Workers value.
package seedkmeans

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

// Options configures a run.
type Options struct {
	K int
	// Constrained clamps labeled objects to their class's cluster
	// (Constrained-KMeans); false reverts to plain seeding
	// (Seeded-KMeans), where labels only initialize centroids.
	Constrained   bool
	MaxIterations int
	Seed          int64

	// Restarts is the number of independent randomized restarts; the result
	// with the lowest cost is returned (ties keep the lowest restart index).
	// <= 0 means 1. Restart r derives its RNG from engine.ChildSeed(Seed, r),
	// so restart 0 reproduces the historical single-run output. Restarts only
	// differ when some cluster has no seeds — a fully seeded run is
	// deterministic and every restart returns the same result.
	Restarts int

	// Workers bounds the total worker budget: restarts run concurrently on
	// up to this many goroutines, and workers left over parallelize the
	// chunked assignment scan inside each restart. <= 0 means
	// runtime.GOMAXPROCS(0). The worker count never changes the result.
	Workers int

	// EarlyStop, when > 0, streams the restarts: they launch lazily and the
	// run stops once the best cost has not improved for EarlyStop
	// consecutive restarts (judged in restart-index order), with Restarts as
	// the hard cap. 0 runs the fixed best-of-Restarts protocol.
	EarlyStop int
}

// DefaultOptions returns the seeded variant for k clusters.
func DefaultOptions(k int) Options { return Options{K: k, MaxIterations: 100} }

// RunContext executes Seeded-/Constrained-KMeans. Classes mentioned in kn map
// to the cluster with the same index; clusters without seeds start from
// random objects.
//
// Cancellation is checked at every restart launch, every k-means iteration,
// and every chunk boundary of the assignment scan, so a canceled run returns
// context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, kn *dataset.Knowledge, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("seedkmeans: nil dataset")
	}
	n, d := ds.N(), ds.D()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("seedkmeans: K = %d out of range", opts.K)
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	if err := kn.Validate(n, d, opts.K); err != nil {
		return nil, err
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}

	// Per-restart-invariant supervision state, computed once and shared
	// read-only across concurrent restarts: the seed mean of each seeded
	// cluster and the clamp map of the constrained variant.
	seedMeans := make([][]float64, opts.K)
	for c := 0; c < opts.K; c++ {
		if seeds := kn.ObjectsOfClass(c); len(seeds) > 0 {
			seedMeans[c] = ds.MeanVector(seeds)
		}
	}
	clamped := map[int]int{}
	if opts.Constrained && kn != nil {
		for obj, c := range kn.ObjectLabels {
			clamped[obj] = c
		}
	}

	results, err := engine.Run(ctx, restarts, opts.Workers, opts.Seed,
		opts.EarlyStop, cluster.BetterResult,
		func(_ int, rng *stats.RNG, intra int) (*cluster.Result, error) {
			return runOnce(ctx, ds, opts, seedMeans, clamped, rng, intra)
		})
	if err != nil {
		return nil, err
	}
	return cluster.BestResult(results), nil
}

// runOnce is one restart: seed the centroids, then alternate the chunked
// assignment scan with the serial update step until the centers stop moving.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, seedMeans [][]float64, clamped map[int]int,
	rng *stats.RNG, workers int) (*cluster.Result, error) {
	n, d := ds.N(), ds.D()

	// Seed the centroids: mean of each class's labeled objects; random
	// objects for unseeded clusters (the only randomized choice).
	centers := make([][]float64, opts.K)
	for c := 0; c < opts.K; c++ {
		if seedMeans[c] != nil {
			centers[c] = append([]float64(nil), seedMeans[c]...)
		} else {
			centers[c] = append([]float64(nil), ds.Row(rng.Intn(n))...)
		}
	}

	assign := make([]int, n)
	dist := make([]float64, n)
	var cost float64
	iterations := 0
	for iter := 0; iter < opts.MaxIterations; iter++ {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		iterations++
		// Assignment scan, chunked over object ranges with disjoint writes
		// (assign[i], dist[i]); the cost sum is folded afterwards in
		// ascending object order — the exact addition sequence of the
		// historical serial loop, so the result is byte-identical for every
		// Workers value.
		if err := engine.ParallelChunksCtx(ctx, n, 0, workers, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if c, ok := clamped[i]; ok {
					assign[i] = c
					dist[i] = distSq(ds.Row(i), centers[c])
					continue
				}
				best := math.Inf(1)
				arg := 0
				row := ds.Row(i)
				for c := 0; c < opts.K; c++ {
					if d := distSq(row, centers[c]); d < best {
						best = d
						arg = c
					}
				}
				assign[i] = arg
				dist[i] = best
			}
		}); err != nil {
			return nil, err
		}
		cost = 0
		for i := 0; i < n; i++ {
			cost += dist[i]
		}
		// Update step (serial: per-cluster sums are order-sensitive float
		// accumulations over ascending object index).
		counts := make([]int, opts.K)
		sums := make([][]float64, opts.K)
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			row := ds.Row(i)
			for j := 0; j < d; j++ {
				sums[c][j] += row[j]
			}
		}
		moved := false
		for c := 0; c < opts.K; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < d; j++ {
				v := sums[c][j] / float64(counts[c])
				if v != centers[c][j] {
					moved = true
				}
				centers[c][j] = v
			}
		}
		if !moved {
			break
		}
	}

	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Score:               cost,
		ScoreHigherIsBetter: false,
		Iterations:          iterations,
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("seedkmeans: internal result invalid: %w", err)
	}
	return res, nil
}

func distSq(a, b []float64) float64 {
	s := 0.0
	for j := range a {
		diff := a[j] - b[j]
		s += diff * diff
	}
	return s
}
