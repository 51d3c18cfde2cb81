// Package harp implements HARP (Yip, Cheung, Ng — TKDE 2004), the
// hierarchical projected clustering baseline of the SSPC paper. HARP merges
// clusters agglomeratively under two dynamically loosened thresholds: a
// cluster may only absorb another if the merged cluster has at least dmin
// selected dimensions, where a dimension is selected when its relevance
// index R_ij = 1 − s²_ij/s²_j reaches Rmin. The thresholds start harsh
// (dmin = d, Rmin high) and are loosened step by step, so early merges are
// the ones most likely to join members of the same real cluster.
//
// This is a reimplementation from the published descriptions (the authors'
// code is not available); see DESIGN.md for the substitution note.
package harp

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

// Options configures a HARP run.
type Options struct {
	// K is the target number of clusters (merging stops there at the
	// latest).
	K int
	// Levels is the number of threshold-loosening steps (default 15).
	Levels int
	// RMax is the starting relevance threshold (default 0.9); the baseline
	// at the final level is 0.
	RMax float64
	// ReportR is the relevance at which a dimension is reported as
	// selected for the final clusters (default 0.5).
	ReportR float64

	// HARP's merge procedure is deterministic; its only free choice is the
	// order in which clusters are scanned, which breaks ties between
	// equally good merges and decides which mutual pairs merge when a batch
	// would overshoot K. Seed randomizes that scan order and Restarts runs
	// several such randomized orders concurrently (on up to Workers
	// goroutines), keeping the highest-scoring clustering. Seed = 0 with
	// Restarts <= 1 is the canonical published order. Restart r derives its
	// RNG from engine.ChildSeed(Seed, r); the worker count never changes
	// the result. Each restart's merge rounds run serially.
	Seed     int64
	Restarts int
	Workers  int
}

// DefaultOptions returns a configuration matching the published defaults.
func DefaultOptions(k int) Options {
	return Options{K: k, Levels: 15, RMax: 0.9, ReportR: 0.5}
}

// node is a cluster in the merge forest with per-dimension Welford
// accumulators, so merged variances are computed in O(d) without touching
// members.
type node struct {
	members []int
	stats   []stats.Running
	active  bool
}

// RunContext executes HARP. It is O(n²·d) in the worst case; the evaluation
// uses it at the paper's scale (n = 1000, d = 100). Restarts with randomized
// scan orders run concurrently through the restart engine; see Options.
//
// Cancellation is checked at every restart launch and every merge round (the
// unit the iteration counter ticks on), so a canceled run returns
// context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("harp: nil dataset")
	}
	n := ds.N()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("harp: K = %d out of range", opts.K)
	}
	if opts.Levels <= 1 {
		opts.Levels = 15
	}
	if opts.RMax <= 0 || opts.RMax > 1 {
		opts.RMax = 0.9
	}
	if opts.ReportR <= 0 || opts.ReportR >= 1 {
		opts.ReportR = 0.5
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	results, err := engine.Run(ctx, restarts, opts.Workers, opts.Seed, 0, nil,
		func(restart int, rng *stats.RNG, _ int) (*cluster.Result, error) {
			var order []int
			if opts.Seed != 0 || restart > 0 {
				order = rng.Perm(n)
			}
			return runOnce(ctx, ds, opts, order)
		})
	if err != nil {
		return nil, err
	}
	return cluster.BestResult(results), nil
}

// runOnce executes one agglomerative merge pass. order permutes the initial
// cluster scan order (nil = canonical object order); members always carry
// original object ids, so only tie-breaking and batch cutoffs depend on it.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, order []int) (*cluster.Result, error) {
	n, d := ds.N(), ds.D()

	globalVar := make([]float64, d)
	for j := 0; j < d; j++ {
		globalVar[j] = ds.ColVariance(j)
		if globalVar[j] == 0 {
			globalVar[j] = 1
		}
	}

	nodes := make([]*node, n)
	for i := 0; i < n; i++ {
		obj := i
		if order != nil {
			obj = order[i]
		}
		st := make([]stats.Running, d)
		row := ds.Row(obj)
		for j := 0; j < d; j++ {
			st[j].Add(row[j])
		}
		nodes[i] = &node{members: []int{obj}, stats: st, active: true}
	}
	activeCount := n

	// evalMerge returns (selectedDims, totalRelevance) of the would-be
	// merged cluster at relevance threshold rmin.
	evalMerge := func(a, b *node, rmin float64) (int, float64) {
		count := 0
		total := 0.0
		for j := 0; j < d; j++ {
			merged := a.stats[j]
			merged.Merge(b.stats[j])
			r := 1 - merged.Variance()/globalVar[j]
			if r >= rmin {
				count++
				total += r
			}
		}
		return count, total
	}

	iterations := 0
	for level := 0; level < opts.Levels && activeCount > opts.K; level++ {
		// The dimension-count threshold loosens quickly (quadratically)
		// while the relevance threshold loosens slowly (square root): early
		// levels then admit only merges that are very similar on a shrinking
		// number of dimensions, which is where the discriminating power of
		// small clusters lives.
		frac := float64(level) / float64(opts.Levels-1)
		rmin := opts.RMax * math.Sqrt(1-frac)
		dmin := int(math.Round(float64(d) * (1 - frac) * (1 - frac)))
		if dmin < 1 {
			dmin = 1
		}

		// Merge at this threshold level until no allowed merge remains:
		// each round, every active cluster proposes its best partner and
		// mutual proposals are merged in batch (deterministically, in
		// slice order).
		for activeCount > opts.K {
			if err := engine.Cause(ctx); err != nil {
				return nil, err
			}
			iterations++
			act := activeNodes(nodes)
			bestPartner := proposeMerges(act, evalMerge, rmin, dmin)
			merged := 0
			for i, a := range act {
				bj := bestPartner[i]
				if bj < 0 || bj <= i { // handle each mutual pair once
					continue
				}
				if bestPartner[bj] != i {
					continue
				}
				b := act[bj]
				if !a.active || !b.active {
					continue
				}
				a.members = append(a.members, b.members...)
				for j := 0; j < d; j++ {
					a.stats[j].Merge(b.stats[j])
				}
				b.active = false
				activeCount--
				merged++
				if activeCount <= opts.K {
					break
				}
			}
			if merged == 0 {
				break
			}
		}
	}

	// If thresholds bottomed out before reaching K clusters, force-merge
	// the best remaining pairs (baseline behaviour: Rmin = 0 admits all).
	for activeCount > opts.K {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		act := activeNodes(nodes)
		bestScore := math.Inf(-1)
		var ba, bb *node
		for i := 0; i < len(act); i++ {
			for j := i + 1; j < len(act); j++ {
				_, score := evalMerge(act[i], act[j], 0)
				if score > bestScore {
					bestScore = score
					ba, bb = act[i], act[j]
				}
			}
		}
		if ba == nil {
			break
		}
		ba.members = append(ba.members, bb.members...)
		for j := 0; j < d; j++ {
			ba.stats[j].Merge(bb.stats[j])
		}
		bb.active = false
		activeCount--
	}

	// Emit the K largest clusters; smaller leftovers become outliers.
	act := activeNodes(nodes)
	sort.Slice(act, func(i, j int) bool { return len(act[i].members) > len(act[j].members) })
	if len(act) > opts.K {
		act = act[:opts.K]
	}
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Outlier
	}
	dims := make([][]int, opts.K)
	score := 0.0
	for c, nd := range act {
		for _, m := range nd.members {
			assign[m] = c
		}
		for j := 0; j < d; j++ {
			r := 1 - nd.stats[j].Variance()/globalVar[j]
			if r >= opts.ReportR {
				dims[c] = append(dims[c], j)
				score += r
			}
		}
	}
	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Dims:                dims,
		Score:               score,
		ScoreHigherIsBetter: true,
		Iterations:          iterations,
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("harp: internal result invalid: %w", err)
	}
	return res, nil
}

// proposeMerges runs one merge-proposal round: every active node scans the
// others for its best allowed partner (highest total relevance at thresholds
// rmin/dmin, ties keeping the earliest partner). The half-matrix loop
// evaluates each pair once, in (lower, higher) argument order, and updates
// both ends of the pair.
func proposeMerges(act []*node, evalMerge func(a, b *node, rmin float64) (int, float64),
	rmin float64, dmin int) []int {
	bestPartner := make([]int, len(act))
	bestScore := make([]float64, len(act))
	for i := range bestPartner {
		bestPartner[i] = -1
		bestScore[i] = math.Inf(-1)
	}
	for i := 0; i < len(act); i++ {
		for j := i + 1; j < len(act); j++ {
			cnt, score := evalMerge(act[i], act[j], rmin)
			if cnt < dmin {
				continue
			}
			if score > bestScore[i] {
				bestScore[i] = score
				bestPartner[i] = j
			}
			if score > bestScore[j] {
				bestScore[j] = score
				bestPartner[j] = i
			}
		}
	}
	return bestPartner
}

func activeNodes(nodes []*node) []*node {
	var out []*node
	for _, nd := range nodes {
		if nd.active {
			out = append(out, nd)
		}
	}
	return out
}
