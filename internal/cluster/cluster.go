// Package cluster defines the result types shared by every clustering
// algorithm in this repository (SSPC and the PROCLUS / HARP / CLARANS / DOC
// baselines): a partition of objects into k clusters plus an outlier list,
// and — for projected algorithms — the selected dimensions of each cluster.
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Outlier is the assignment value for objects placed on the outlier list.
const Outlier = -1

// FittedCluster is the scoring state of one cluster: the selected
// dimensions, the representative's projection on each selected dimension,
// and the per-dimension selection threshold ŝ²_ij — the (dims, rep, ŝ²)
// triple SSPC's Step-3 assignment reads, and the one PROCLUS and DOC emit.
// The three slices run in parallel: Rep[t] and SHat[t] belong to dimension
// Dims[t]. It is the triple's only representation: the fit's Step 3 packs
// it every iteration, Result.Fitted snapshots it, internal/model persists it
// under the JSON names below, and a serving Assigner scores with it.
type FittedCluster struct {
	// Dims lists the cluster's selected dimensions in ascending order.
	Dims []int `json:"dims"`
	// Rep holds the representative's projection on each selected dimension.
	Rep []float64 `json:"rep"`
	// SHat holds the selection threshold ŝ²_ij per selected dimension;
	// in a servable triple every value is finite and strictly positive.
	SHat []float64 `json:"shat"`
}

// CopyFrom makes fc a deep copy of src, reusing fc's buffers. Copied into a
// zero FittedCluster, an empty slice stays nil.
func (fc *FittedCluster) CopyFrom(src *FittedCluster) {
	fc.Dims = append(fc.Dims[:0], src.Dims...)
	fc.Rep = append(fc.Rep[:0], src.Rep...)
	fc.SHat = append(fc.SHat[:0], src.SHat...)
}

// Servable returns fitted when every triple passes Validate(d), and nil
// otherwise. A fit whose snapshot is degenerate — a zero-variance column
// gives ŝ² = 0 — drops Result.Fitted this way instead of failing: the
// clustering is still valid, it just cannot be served.
func Servable(fitted []FittedCluster, d int) []FittedCluster {
	for i := range fitted {
		if fitted[i].Validate(d) != nil {
			return nil
		}
	}
	return fitted
}

// Result is the output of a projected clustering run.
type Result struct {
	// K is the number of clusters requested.
	K int
	// Assignments has one entry per object: the cluster index in [0,K), or
	// Outlier.
	Assignments []int
	// Dims[i] lists the selected (relevant) dimensions of cluster i in
	// ascending order. Non-projected algorithms leave it nil.
	Dims [][]int
	// Score is the algorithm-specific objective value of this result.
	// Higher-is-better or lower-is-better depends on the algorithm; it is
	// only comparable across runs of the same algorithm, which is how the
	// paper's best-of-10 protocol uses it.
	Score float64
	// ScoreHigherIsBetter tells the best-of-n harness which direction
	// Score improves.
	ScoreHigherIsBetter bool
	// Iterations is the number of main-loop iterations the algorithm ran.
	Iterations int
	// Fitted, when non-nil, carries the per-cluster scoring state (one
	// FittedCluster per cluster, index-aligned with Dims) that reproduces
	// Assignments when new points are scored under SSPC's Step-3 rule.
	// Algorithms without a servable fitted shape (HARP, CLARANS, CLIQUE,
	// the k-means baselines, biclustering) leave it nil.
	Fitted []FittedCluster
}

// Sizes returns the size of each cluster (index 0..K-1) and the outlier
// count as the second return value.
func (r *Result) Sizes() ([]int, int) {
	sizes := make([]int, r.K)
	outliers := 0
	for _, a := range r.Assignments {
		if a == Outlier {
			outliers++
			continue
		}
		if a >= 0 && a < r.K {
			sizes[a]++
		}
	}
	return sizes, outliers
}

// Better reports whether score a is better than score b under the result's
// score direction.
func (r *Result) Better(a, b float64) bool {
	if r.ScoreHigherIsBetter {
		return a > b
	}
	return a < b
}

// BetterResult reports whether result a beats result b under a's own score
// direction — the strict predicate the streaming restart engine uses to
// decide whether a restart improved the incumbent best. Both results must
// come from the same algorithm (same score direction), as with the paper's
// best-of-n protocol.
func BetterResult(a, b *Result) bool {
	return a.Better(a.Score, b.Score)
}

// BestResult reduces a slice of per-restart results to the winner: the one
// with the best Score under its own score direction, ties keeping the
// lowest index so the reduction is deterministic. The winner's Iterations
// is overwritten with the total across all results, counting the full work
// performed. It returns nil for an empty slice.
func BestResult(results []*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	best := results[0]
	total := 0
	for _, r := range results[1:] {
		if r.Better(r.Score, best.Score) {
			best = r
		}
	}
	for _, r := range results {
		total += r.Iterations
	}
	best.Iterations = total
	return best
}

// Validate checks structural invariants: assignment bounds, dims bounds and
// sortedness. n and d give the dataset shape.
func (r *Result) Validate(n, d int) error {
	if r.K <= 0 {
		return fmt.Errorf("cluster: K = %d", r.K)
	}
	if len(r.Assignments) != n {
		return fmt.Errorf("cluster: %d assignments for %d objects", len(r.Assignments), n)
	}
	for i, a := range r.Assignments {
		if a != Outlier && (a < 0 || a >= r.K) {
			return fmt.Errorf("cluster: object %d assigned to %d (K=%d)", i, a, r.K)
		}
	}
	if r.Dims != nil {
		if len(r.Dims) != r.K {
			return fmt.Errorf("cluster: %d dim sets for K=%d", len(r.Dims), r.K)
		}
		for c, dims := range r.Dims {
			if !sort.IntsAreSorted(dims) {
				return fmt.Errorf("cluster: dims of cluster %d not sorted", c)
			}
			for _, j := range dims {
				if j < 0 || j >= d {
					return fmt.Errorf("cluster: cluster %d selects dim %d (d=%d)", c, j, d)
				}
			}
			for t := 1; t < len(dims); t++ {
				if dims[t] == dims[t-1] {
					return fmt.Errorf("cluster: cluster %d selects dim %d twice", c, dims[t])
				}
			}
		}
	}
	if r.Fitted != nil {
		if len(r.Fitted) != r.K {
			return fmt.Errorf("cluster: %d fitted clusters for K=%d", len(r.Fitted), r.K)
		}
		for c, fc := range r.Fitted {
			if err := fc.Validate(d); err != nil {
				return fmt.Errorf("cluster: fitted cluster %d: %w", c, err)
			}
		}
	}
	return nil
}

// Validate checks one fitted cluster's invariants against dimensionality d:
// the three parallel slices have equal length, dims are strictly ascending
// and in [0, d), representatives are finite, and every threshold is finite
// and strictly positive (a selected dimension always has ŝ² > dispersion ≥ 0,
// and the Step-3 score divides by it).
func (fc *FittedCluster) Validate(d int) error {
	if len(fc.Rep) != len(fc.Dims) || len(fc.SHat) != len(fc.Dims) {
		return fmt.Errorf("parallel slices disagree: %d dims, %d rep, %d shat",
			len(fc.Dims), len(fc.Rep), len(fc.SHat))
	}
	for t, j := range fc.Dims {
		if j < 0 || j >= d {
			return fmt.Errorf("dim %d out of range [0,%d)", j, d)
		}
		if t > 0 && fc.Dims[t-1] >= j {
			return fmt.Errorf("dims not strictly ascending at index %d", t)
		}
		if math.IsNaN(fc.Rep[t]) || math.IsInf(fc.Rep[t], 0) {
			return fmt.Errorf("representative on dim %d is %v", j, fc.Rep[t])
		}
		if math.IsNaN(fc.SHat[t]) || math.IsInf(fc.SHat[t], 0) || fc.SHat[t] <= 0 {
			return fmt.Errorf("threshold on dim %d is %v (want finite > 0)", j, fc.SHat[t])
		}
	}
	return nil
}
