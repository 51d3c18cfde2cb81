// Package proclus implements PROCLUS (Aggarwal, Procopiuc, Wolf, Yu, Park —
// SIGMOD 1999), the partitional projected clustering baseline of the SSPC
// paper's evaluation. PROCLUS is a k-medoid method: it greedily picks a set
// of well-separated medoid candidates, iteratively selects per-cluster
// dimensions from the locality of each medoid via z-scores of the average
// per-dimension distances, assigns points by Manhattan segmental distance,
// and replaces the medoid of the smallest cluster.
//
// PROCLUS requires the user to supply l, the average number of relevant
// dimensions per cluster — the parameter whose misspecification the SSPC
// paper's Figure 4 studies.
package proclus

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

// Options configures a PROCLUS run.
type Options struct {
	// K is the number of clusters; L is the average cluster dimensionality
	// (the paper's l). K*L dimensions are distributed greedily with at
	// least 2 per cluster.
	K int
	L int

	// OutlierHandling enables the refinement-phase outlier pass: points
	// farther from every medoid than that medoid's sphere of influence are
	// discarded.
	OutlierHandling bool

	Seed int64

	// Restarts is the number of independent randomized runs; the result
	// with the lowest PROCLUS cost is returned (ties keep the lowest
	// restart index). <= 0 means 1. Restart r derives its RNG from
	// engine.ChildSeed(Seed, r).
	Restarts int

	// Workers bounds the total worker budget: restarts run concurrently on
	// up to this many goroutines, and workers left over (when Workers >
	// Restarts) parallelize the chunked loops (locality dimension finding,
	// assignment, outlier marking) inside each restart. <= 0 means
	// runtime.GOMAXPROCS(0). The worker count never changes the result.
	Workers int

	// EarlyStop, when > 0, streams the restarts instead of running a fixed
	// best-of-Restarts: restarts launch lazily and the run stops once the
	// best cost has not improved for EarlyStop consecutive restarts (judged
	// in restart-index order, so the outcome is identical for every Workers
	// value). Restarts stays the hard cap. 0 (the default) runs all
	// Restarts unconditionally.
	EarlyStop int
}

// DefaultOptions returns the paper's configuration for k clusters of
// average dimensionality l.
func DefaultOptions(k, l int) Options {
	return Options{K: k, L: l, OutlierHandling: true}
}

// Constants of the original paper.
const (
	// sampleFactor (A) and candidateFactor (B) size the random sample (A·K)
	// and the greedy piercing set (B·K) of the initialization phase.
	sampleFactor    = 30
	candidateFactor = 5
	// maxStall ends the iterative phase after this many non-improving
	// medoid replacements; maxIterations is a hard cap.
	maxStall      = 10
	maxIterations = 60
)

func (o Options) normalized(ds *dataset.Dataset) (Options, error) {
	if ds == nil {
		return o, errors.New("proclus: nil dataset")
	}
	if o.K <= 0 || o.K > ds.N() {
		return o, fmt.Errorf("proclus: K = %d out of range", o.K)
	}
	if o.L < 2 {
		return o, fmt.Errorf("proclus: L = %d (needs >= 2)", o.L)
	}
	if o.L > ds.D() {
		return o, fmt.Errorf("proclus: L = %d exceeds d = %d", o.L, ds.D())
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.EarlyStop < 0 {
		o.EarlyStop = 0
	}
	return o, nil
}

// RunContext executes PROCLUS and returns the best clustering (lowest cost)
// across Options.Restarts independent randomized runs, executed concurrently
// on up to Options.Workers goroutines through the restart engine; workers
// beyond the restart count parallelize the chunked point loops inside each
// restart. With Options.EarlyStop > 0 the restarts stream lazily and stop
// once the cost has plateaued for that many consecutive restarts. The result
// is a pure function of (ds, opts) — Workers never changes it.
//
// Cancellation is checked at every restart launch, every iteration of the
// medoid-replacement loop, and every chunk boundary of the point loops, so a
// canceled run returns context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	results, err := engine.Run(ctx, opts.Restarts, opts.Workers,
		opts.Seed, opts.EarlyStop, cluster.BetterResult,
		func(_ int, rng *stats.RNG, intra int) (*cluster.Result, error) {
			return runOnce(ctx, ds, opts, rng, intra)
		})
	if err != nil {
		return nil, err
	}
	return cluster.BestResult(results), nil
}

// runOnce executes one randomized PROCLUS run with its own RNG,
// parallelizing the chunked point loops across up to intra goroutines.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, rng *stats.RNG, intra int) (*cluster.Result, error) {
	n := ds.N()

	candidates := greedyPiercing(ds, rng, opts)
	if len(candidates) < opts.K {
		return nil, fmt.Errorf("proclus: only %d medoid candidates for K=%d", len(candidates), opts.K)
	}

	// Current medoid set: the first K candidates (they are already spread
	// out by the greedy max-min construction).
	medoids := append([]int(nil), candidates[:opts.K]...)

	assign := make([]int, n)
	bestAssign := make([]int, n)
	bestCost := math.Inf(1)
	bestMedoids := append([]int(nil), medoids...)

	stall := 0
	iterations := 0
	for iterations < maxIterations && stall < maxStall {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		iterations++
		dims, err := findDimensions(ctx, ds, medoids, opts, intra)
		if err != nil {
			return nil, err
		}
		cost, err := assignPoints(ctx, ds, medoids, dims, assign, intra)
		if err != nil {
			return nil, err
		}
		if cost < bestCost {
			bestCost = cost
			copy(bestAssign, assign)
			copy(bestMedoids, medoids)
			stall = 0
		} else {
			stall++
			copy(medoids, bestMedoids)
		}
		// Replace the medoid of the worst (smallest) cluster with a random
		// unused candidate.
		sizes := make([]int, opts.K)
		for _, c := range bestAssign {
			if c >= 0 {
				sizes[c]++
			}
		}
		worst := 0
		for i, s := range sizes {
			if s < sizes[worst] {
				worst = i
			}
		}
		used := make(map[int]bool, opts.K)
		for _, m := range medoids {
			used[m] = true
		}
		var free []int
		for _, c := range candidates {
			if !used[c] {
				free = append(free, c)
			}
		}
		if len(free) == 0 {
			break
		}
		medoids[worst] = free[rng.Intn(len(free))]
	}

	// Refinement phase: redetermine dimensions from the final clusters
	// (instead of localities) and reassign once.
	if err := engine.Cause(ctx); err != nil {
		return nil, err
	}
	refined := refineDimensions(ds, bestMedoids, bestAssign, opts)
	finalCost, err := assignPoints(ctx, ds, bestMedoids, refined, bestAssign, intra)
	if err != nil {
		return nil, err
	}
	if opts.OutlierHandling {
		if err := markOutliers(ctx, ds, bestMedoids, refined, bestAssign, intra); err != nil {
			return nil, err
		}
	}

	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         append([]int(nil), bestAssign...),
		Dims:                refined,
		Score:               finalCost,
		ScoreHigherIsBetter: false,
		Iterations:          iterations,
	}
	res.Fitted = cluster.Servable(fittedFrom(ds, bestMedoids, refined), ds.D())
	if err := res.Validate(n, ds.D()); err != nil {
		return nil, fmt.Errorf("proclus: internal result invalid: %w", err)
	}
	return res, nil
}

// fittedFrom builds the per-cluster (dims, rep, ŝ²) triples of a
// finished run: each cluster's refined dimensions, its medoid's projection on
// them, and the dataset's global per-column variance as the selection
// threshold (PROCLUS has no per-cluster ŝ², so the global spread plays the
// role Step-3 scoring expects: "within one cluster-scale unit of the
// representative"). A zero-variance column gives a degenerate triple, and
// cluster.Servable then drops Fitted instead of failing the run.
func fittedFrom(ds *dataset.Dataset, medoids []int, dims [][]int) []cluster.FittedCluster {
	fitted := make([]cluster.FittedCluster, len(medoids))
	for i, m := range medoids {
		row := ds.Row(m)
		fc := &fitted[i]
		fc.Dims = append([]int(nil), dims[i]...)
		fc.Rep = make([]float64, 0, len(dims[i]))
		fc.SHat = make([]float64, 0, len(dims[i]))
		for _, j := range dims[i] {
			fc.Rep = append(fc.Rep, row[j])
			fc.SHat = append(fc.SHat, ds.ColVariance(j))
		}
	}
	return fitted
}

// greedyPiercing draws a sample of A·K objects and greedily selects B·K of
// them by max-min full-dimensional distance (the "piercing set" likely to
// contain a medoid of each real cluster).
func greedyPiercing(ds *dataset.Dataset, rng *stats.RNG, opts Options) []int {
	n := ds.N()
	sampleSize := sampleFactor * opts.K
	if sampleSize > n {
		sampleSize = n
	}
	sample := rng.Sample(n, sampleSize)
	target := candidateFactor * opts.K
	if target > len(sample) {
		target = len(sample)
	}

	picked := []int{sample[rng.Intn(len(sample))]}
	minDist := make([]float64, len(sample))
	for t, s := range sample {
		minDist[t] = ds.EuclideanSq(s, picked[0], nil)
	}
	for len(picked) < target {
		bestT := 0
		for t := range sample {
			if minDist[t] > minDist[bestT] {
				bestT = t
			}
		}
		next := sample[bestT]
		picked = append(picked, next)
		for t, s := range sample {
			if d := ds.EuclideanSq(s, next, nil); d < minDist[t] {
				minDist[t] = d
			}
		}
	}
	return picked
}

// findDimensions implements the iterative-phase dimension selection: for
// each medoid, the locality L_i (points within δ_i, the distance to the
// nearest other medoid) yields average per-dimension distances X_ij, whose
// z-scores are ranked globally to distribute K·L dimensions with at least 2
// per cluster. The per-medoid locality passes — δ_i, the O(n·d) locality
// scan, the X_i accumulation — are independent and each writes only X[i],
// so they run one medoid per chunk across the intra-restart workers; within
// a medoid the accumulation stays in ascending point order, so X (and the
// returned dimension sets) are bit-identical for every worker count.
func findDimensions(ctx context.Context, ds *dataset.Dataset, medoids []int, opts Options, workers int) ([][]int, error) {
	k := len(medoids)
	d := ds.D()
	X := make([][]float64, k)

	if err := engine.ParallelChunksCtx(ctx, k, 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			m := medoids[i]
			// δ_i: distance to the nearest other medoid (all dimensions).
			delta := math.Inf(1)
			for j, other := range medoids {
				if j == i {
					continue
				}
				if dist := ds.EuclideanSq(m, other, nil); dist < delta {
					delta = dist
				}
			}
			// Locality: points within δ_i of the medoid.
			var locality []int
			for p := 0; p < ds.N(); p++ {
				if ds.EuclideanSq(p, m, nil) <= delta {
					locality = append(locality, p)
				}
			}
			if len(locality) == 0 {
				locality = []int{m}
			}
			X[i] = make([]float64, d)
			mrow := ds.Row(m)
			for _, p := range locality {
				prow := ds.Row(p)
				for j := 0; j < d; j++ {
					X[i][j] += math.Abs(prow[j] - mrow[j])
				}
			}
			for j := 0; j < d; j++ {
				X[i][j] /= float64(len(locality))
			}
		}
	}); err != nil {
		return nil, err
	}
	return distributeDimensions(X, d, opts), nil
}

// distributeDimensions turns the per-cluster average-distance matrix X into
// per-cluster dimension sets: z-scores within each cluster, then the greedy
// global distribution — 2 per cluster first, then the globally smallest
// z-scores until K·L dimensions are taken. Shared tail of findDimensions
// (locality-based X) and refineDimensions (actual-cluster X); fully serial
// and deterministic.
func distributeDimensions(X [][]float64, d int, opts Options) [][]int {
	k := len(X)
	type scored struct {
		cluster, dim int
		z            float64
	}
	var all []scored
	for i := 0; i < k; i++ {
		var r stats.Running
		for j := 0; j < d; j++ {
			r.Add(X[i][j])
		}
		sigma := math.Sqrt(r.Variance())
		if sigma == 0 {
			sigma = 1
		}
		for j := 0; j < d; j++ {
			all = append(all, scored{i, j, (X[i][j] - r.Mean()) / sigma})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].z < all[b].z })

	total := opts.K * opts.L
	dims := make([][]int, k)
	taken := 0
	// First pass: two best dims for each cluster.
	perCluster := make([][]scored, k)
	for _, s := range all {
		perCluster[s.cluster] = append(perCluster[s.cluster], s)
	}
	used := make(map[[2]int]bool)
	for i := 0; i < k; i++ {
		for t := 0; t < 2 && t < len(perCluster[i]); t++ {
			s := perCluster[i][t]
			dims[i] = append(dims[i], s.dim)
			used[[2]int{i, s.dim}] = true
			taken++
		}
	}
	for _, s := range all {
		if taken >= total {
			break
		}
		if used[[2]int{s.cluster, s.dim}] {
			continue
		}
		dims[s.cluster] = append(dims[s.cluster], s.dim)
		used[[2]int{s.cluster, s.dim}] = true
		taken++
	}
	for i := range dims {
		sort.Ints(dims[i])
	}
	return dims
}

// assignPoints assigns every object to the medoid with the smallest
// Manhattan segmental distance and returns the PROCLUS cost: the average
// within-cluster segmental dispersion weighted by cluster size. The argmin
// scan runs chunked over point ranges (disjoint writes to assign); the cost
// runs one cluster per chunk, each summing into its own slot, and the slots
// are added in cluster-index order after the call, so the floating-point sum
// is byte-identical to the serial loop for every workers value.
func assignPoints(ctx context.Context, ds *dataset.Dataset, medoids []int, dims [][]int, assign []int, workers int) (float64, error) {
	n := ds.N()
	k := len(medoids)
	medoidRows := make([][]float64, k)
	for i, m := range medoids {
		medoidRows[i] = ds.Row(m)
	}
	if err := engine.ParallelChunksCtx(ctx, n, 0, workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			best := math.Inf(1)
			arg := 0
			for i := 0; i < k; i++ {
				if d := ds.SegmentalDistance(p, medoidRows[i], dims[i]); d < best {
					best = d
					arg = i
				}
			}
			assign[p] = arg
		}
	}); err != nil {
		return 0, err
	}
	// Cost: (1/n) Σ_i n_i w_i with w_i the mean segmental distance of the
	// members to their centroid over the cluster's dimensions. Each cluster
	// sums its members in ascending point order; an empty or dimensionless
	// cluster contributes exactly 0.0, which leaves the non-negative running
	// sum bit-identical to skipping it.
	sums := make([]float64, k)
	if err := engine.ParallelChunksCtx(ctx, k, 1, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var members []int
			for p := 0; p < n; p++ {
				if assign[p] == i {
					members = append(members, p)
				}
			}
			if len(members) == 0 || len(dims[i]) == 0 {
				continue
			}
			centroid := ds.MeanVector(members)
			for _, p := range members {
				sums[i] += ds.SegmentalDistance(p, centroid, dims[i]) // n_i·w_i
			}
		}
	}); err != nil {
		return 0, err
	}
	cost := 0.0
	for _, s := range sums {
		cost += s
	}
	return cost / float64(n), nil
}

// refineDimensions redoes dimension selection using the actual clusters in
// place of the localities (the refinement phase of the paper): one serial
// pass over the assignment in ascending point order accumulates each
// cluster's average distance to its medoid per dimension.
func refineDimensions(ds *dataset.Dataset, medoids []int, assign []int, opts Options) [][]int {
	k := len(medoids)
	d := ds.D()
	X := make([][]float64, k)
	counts := make([]int, k)
	for i := range X {
		X[i] = make([]float64, d)
	}
	for p, c := range assign {
		if c < 0 {
			continue
		}
		prow := ds.Row(p)
		mrow := ds.Row(medoids[c])
		for j := 0; j < d; j++ {
			X[c][j] += math.Abs(prow[j] - mrow[j])
		}
		counts[c]++
	}
	for i := 0; i < k; i++ {
		if counts[i] == 0 {
			counts[i] = 1 // empty cluster: X stays all-zero
		}
		for j := 0; j < d; j++ {
			X[i][j] /= float64(counts[i])
		}
	}
	return distributeDimensions(X, d, opts)
}

// markOutliers discards points outside every medoid's sphere of influence:
// the smallest segmental distance from the medoid to any other medoid in
// the cluster's subspace. The per-point membership test runs chunked over
// point ranges; each chunk writes only its own assign slots.
func markOutliers(ctx context.Context, ds *dataset.Dataset, medoids []int, dims [][]int, assign []int, workers int) error {
	k := len(medoids)
	radius := make([]float64, k)
	for i := 0; i < k; i++ {
		radius[i] = math.Inf(1)
		mrow := ds.Row(medoids[i])
		for j := 0; j < k; j++ {
			if i == j {
				continue
			}
			if d := ds.SegmentalDistance(medoids[j], mrow, dims[i]); d < radius[i] {
				radius[i] = d
			}
		}
	}
	return engine.ParallelChunksCtx(ctx, len(assign), 0, workers, func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			inside := false
			for i := 0; i < k; i++ {
				if ds.SegmentalDistance(p, ds.Row(medoids[i]), dims[i]) <= radius[i] {
					inside = true
					break
				}
			}
			if !inside {
				assign[p] = cluster.Outlier
			}
		}
	})
}
