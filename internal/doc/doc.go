// Package doc implements DOC and FastDOC (Procopiuc, Jones, Agarwal, Murali
// — SIGMOD 2002), the Monte-Carlo projected clustering algorithms reviewed
// in §2.1 of the SSPC paper. DOC finds one projected cluster at a time: a
// random seed point p and a small random discriminating set X determine the
// dimensions on which all of X stays within width w of p; the cluster is the
// set of points inside the resulting hyper-box, scored by
// µ(a, b) = a·(1/β)^b which trades cluster size against dimensionality.
package doc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Options configures DOC / FastDOC.
type Options struct {
	// K is the number of clusters to extract (one at a time).
	K int
	// W is the half-width of the hyper-box on each relevant dimension.
	W float64
	// Alpha is the minimum cluster density (fraction of remaining points).
	Alpha float64
	// Beta balances cluster size against dimensionality in the quality
	// function µ(a,b) = a·(1/β)^b; β ∈ (0, 0.5].
	Beta float64
	// OuterIterations and InnerIterations bound the Monte-Carlo sampling;
	// zero picks the theory-guided defaults (2/α outer, capped inner).
	OuterIterations int
	InnerIterations int
	// Fast switches to the FastDOC heuristic: inner trials only compare
	// |D| (the dimension count), and the best box is computed once.
	Fast bool
	Seed int64

	// Restarts is the number of independent Monte-Carlo runs; the result
	// with the highest total µ score is returned (ties keep the lowest
	// restart index). <= 0 means 1. Restart r derives its RNG from
	// engine.ChildSeed(Seed, r).
	Restarts int

	// Workers bounds the total worker budget: restarts run concurrently on
	// up to this many goroutines, and workers left over (when Workers >
	// Restarts) parallelize the chunked box-membership scans inside each
	// restart. <= 0 means runtime.GOMAXPROCS(0). The worker count never
	// changes the result.
	Workers int

	// EarlyStop, when > 0, streams the restarts instead of running a fixed
	// best-of-Restarts: restarts launch lazily and the run stops once the
	// best total µ score has not improved for EarlyStop consecutive restarts
	// (judged in restart-index order, so the outcome is identical for every
	// Workers value). Restarts stays the hard cap. 0 (the default) runs all
	// Restarts unconditionally.
	EarlyStop int
}

// DefaultOptions returns a practical configuration: w = 15% of the value
// range is reasonable for the uniform [0,100] synthetic data.
func DefaultOptions(k int, w float64) Options {
	return Options{K: k, W: w, Alpha: 0.08, Beta: 0.25}
}

// RunContext extracts K projected clusters one after another; points not
// captured by any box end up as outliers. Options.Restarts independent
// Monte-Carlo runs execute concurrently on up to Options.Workers goroutines
// through the restart engine and the highest-scoring run wins, so the result
// is a pure function of (ds, opts) regardless of the worker count.
//
// Cancellation is checked at every restart launch, every Monte-Carlo inner
// trial, and every chunk boundary of the box-membership scan, so a canceled
// run returns context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("doc: nil dataset")
	}
	if opts.K <= 0 || opts.K > ds.N() {
		return nil, fmt.Errorf("doc: K = %d out of range", opts.K)
	}
	if opts.W <= 0 {
		return nil, fmt.Errorf("doc: W = %v must be positive", opts.W)
	}
	if opts.Alpha <= 0 || opts.Alpha > 1 {
		return nil, fmt.Errorf("doc: Alpha = %v out of (0,1]", opts.Alpha)
	}
	if opts.Beta <= 0 || opts.Beta > 0.5 {
		return nil, fmt.Errorf("doc: Beta = %v out of (0,0.5]", opts.Beta)
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	if opts.EarlyStop < 0 {
		opts.EarlyStop = 0
	}
	results, err := engine.Run(ctx, restarts, opts.Workers,
		opts.Seed, opts.EarlyStop, cluster.BetterResult,
		func(_ int, rng *stats.RNG, intra int) (*cluster.Result, error) {
			return runOnce(ctx, ds, opts, rng, intra)
		})
	if err != nil {
		return nil, err
	}
	return cluster.BestResult(results), nil
}

// runOnce executes one Monte-Carlo DOC run with its own RNG, parallelizing
// the box-membership scans across up to intra goroutines.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, rng *stats.RNG, intra int) (*cluster.Result, error) {
	n, d := ds.N(), ds.D()

	// Discriminating set size r = ceil(log(2d)/log(1/2β)).
	r := int(math.Ceil(math.Log(2*float64(d)) / math.Log(1/(2*opts.Beta))))
	if r < 1 {
		r = 1
	}
	outer := opts.OuterIterations
	if outer <= 0 {
		outer = int(math.Ceil(2 / opts.Alpha))
		if outer > 30 {
			outer = 30
		}
	}
	inner := opts.InnerIterations
	if inner <= 0 {
		inner = 64
		if opts.Fast {
			inner = 32
		}
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Outlier
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	dims := make([][]int, opts.K)
	seeds := make([][]float64, opts.K) // winning trial's seed row per cluster
	totalScore := 0.0
	iterations := 0

	for c := 0; c < opts.K && len(remaining) > 0; c++ {
		bestScore := -1.0
		var bestMembers []int
		var bestDims []int
		var bestSeed []float64
		minSize := int(opts.Alpha * float64(len(remaining)))
		if minSize < 2 {
			minSize = 2
		}

		for out := 0; out < outer; out++ {
			p := remaining[rng.Intn(len(remaining))]
			prow := ds.Row(p)
			for in := 0; in < inner; in++ {
				if err := engine.Cause(ctx); err != nil {
					return nil, err
				}
				iterations++
				X := rng.SampleFrom(remaining, minInt(r, len(remaining)))
				var D []int
				for j := 0; j < d; j++ {
					ok := true
					for _, x := range X {
						if math.Abs(ds.At(x, j)-prow[j]) > opts.W {
							ok = false
							break
						}
					}
					if ok {
						D = append(D, j)
					}
				}
				if len(D) == 0 {
					continue
				}
				if opts.Fast {
					// FastDOC: keep only the trial with the most
					// dimensions; the box membership is evaluated at the
					// end of the inner loop.
					if bestDims == nil || len(D) > len(bestDims) ||
						(len(D) == len(bestDims) && bestMembers == nil) {
						members, err := boxMembers(ctx, ds, remaining, prow, D, opts.W, intra)
						if err != nil {
							return nil, err
						}
						if len(members) < minSize {
							continue
						}
						bestDims = D
						bestMembers = members
						bestSeed = prow
						bestScore = mu(len(members), len(D), opts.Beta)
					}
					continue
				}
				members, err := boxMembers(ctx, ds, remaining, prow, D, opts.W, intra)
				if err != nil {
					return nil, err
				}
				if len(members) < minSize {
					continue
				}
				if score := mu(len(members), len(D), opts.Beta); score > bestScore {
					bestScore = score
					bestMembers = members
					bestDims = D
					bestSeed = prow
				}
			}
		}
		if bestMembers == nil {
			break // no cluster of sufficient density remains
		}
		for _, m := range bestMembers {
			assign[m] = c
		}
		sort.Ints(bestDims)
		dims[c] = bestDims
		seeds[c] = bestSeed
		totalScore += bestScore
		remaining = removeAll(remaining, bestMembers)
	}

	for c := range dims {
		if dims[c] == nil {
			dims[c] = []int{}
		}
	}
	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Dims:                dims,
		Score:               totalScore,
		ScoreHigherIsBetter: true,
		Iterations:          iterations,
	}
	if fitted, ok := fittedFrom(d, dims, seeds, opts.W); ok {
		res.Fitted = fitted
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("doc: internal result invalid: %w", err)
	}
	return res, nil
}

// fittedFrom builds the servable per-cluster (dims, rep, ŝ²) triples of a
// finished run: each cluster's box dimensions, the winning trial's seed-point
// projection on them, and w² as every threshold — so Step-3 scoring of the
// fitted model treats "inside the box" (|x_j − p_j| ≤ w on every relevant
// dimension) as a positive per-dimension contribution. A cluster DOC never
// filled keeps an empty triple, matching its empty dim set. Returns ok=false
// — dropping Fitted, not failing the run — if any triple is degenerate.
func fittedFrom(d int, dims [][]int, seeds [][]float64, w float64) ([]cluster.FittedCluster, bool) {
	fitted := make([]cluster.FittedCluster, len(dims))
	for c := range dims {
		fc := &fitted[c]
		fc.Dims = append([]int(nil), dims[c]...)
		fc.Rep = make([]float64, 0, len(dims[c]))
		fc.SHat = make([]float64, 0, len(dims[c]))
		for _, j := range dims[c] {
			fc.Rep = append(fc.Rep, seeds[c][j])
			fc.SHat = append(fc.SHat, w*w)
		}
		if fc.Validate(d) != nil {
			return nil, false
		}
	}
	return fitted, true
}

// mu is DOC's quality function µ(a, b) = a·(1/β)^b, computed in log space
// to avoid overflow for large b.
func mu(a, b int, beta float64) float64 {
	return math.Log(float64(a)) + float64(b)*math.Log(1/beta)
}

// boxMembers returns the remaining points within w of p on every dimension
// in D, scanning `remaining` in engine-sized index chunks. Each chunk
// collects its own ordered sub-list and the ordered fold concatenates them
// in chunk-index order, so the member list is byte-identical to the serial
// scan for every workers value.
func boxMembers(ctx context.Context, ds *dataset.Dataset, remaining []int, prow []float64, D []int, w float64, workers int) ([]int, error) {
	return engine.MapChunksIntoCtx(ctx, len(remaining), 0, workers, nil, func(_, lo, hi int) []int {
		var out []int
		for _, q := range remaining[lo:hi] {
			qrow := ds.Row(q)
			ok := true
			for _, j := range D {
				if math.Abs(qrow[j]-prow[j]) > w {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, q)
			}
		}
		return out
	}, func(acc, chunk []int) []int { return append(acc, chunk...) })
}

func removeAll(from, drop []int) []int {
	set := make(map[int]bool, len(drop))
	for _, v := range drop {
		set[v] = true
	}
	out := from[:0]
	for _, v := range from {
		if !set[v] {
			out = append(out, v)
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
