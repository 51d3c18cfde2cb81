package core

import (
	"fmt"

	"repro/internal/cluster"
)

// Assigner is the one implementation of the Step-3 rule: it scores points
// against per-cluster (dims, rep, ŝ²) triples. The fit's Step 3 scores
// through an Assigner value it repacks every iteration (assign.go), and a
// served model scores through one built by NewAssigner, so a persisted
// model scores exactly like the fit that produced it. Fitting is rare and
// expensive, scoring is O(K·|V|) per point and perpetual, so this is the
// serving hot path.
//
// An Assigner built by NewAssigner is immutable — scoring reads only the
// triples and writes only the caller's output — so any number of goroutines
// may call AssignPoint / AssignBatch concurrently with no locking and no
// per-caller scratch. Both forms allocate nothing in steady state
// (TestAssignerZeroAlloc pins it, like TestAssignZeroAllocSteadyState pins
// the in-fit kernel).
type Assigner struct {
	d        int
	clusters []cluster.FittedCluster
}

// NewAssigner builds a serving assigner for points of dimensionality d from
// per-cluster fitted triples. Every triple is validated up front
// (cluster.FittedCluster.Validate) so the hot path can skip all checks:
// parallel slices of equal length, strictly ascending dims in [0, d), finite
// representatives, finite strictly positive thresholds. The triples are
// deep-copied, so the caller may reuse them.
func NewAssigner(d int, fitted []cluster.FittedCluster) (*Assigner, error) {
	if d <= 0 {
		return nil, fmt.Errorf("assigner: dimensionality %d", d)
	}
	if len(fitted) == 0 {
		return nil, fmt.Errorf("assigner: no fitted clusters")
	}
	a := &Assigner{d: d, clusters: make([]cluster.FittedCluster, len(fitted))}
	for i := range fitted {
		if err := fitted[i].Validate(d); err != nil {
			return nil, fmt.Errorf("assigner: cluster %d: %w", i, err)
		}
		a.clusters[i].CopyFrom(&fitted[i])
	}
	return a, nil
}

// D returns the point dimensionality the assigner expects.
func (a *Assigner) D() int { return a.d }

// AssignPoint scores one point (its first D() values are read) and returns
// the winning cluster index, or cluster.Outlier when the point improves no
// cluster. Allocation-free; safe for concurrent callers.
func (a *Assigner) AssignPoint(row []float64) (int, error) {
	if len(row) < a.d {
		return 0, fmt.Errorf("assigner: point has %d values, model needs %d", len(row), a.d)
	}
	return a.score(row), nil
}

// AssignBatch scores len(out) points stored row-major in rows (point x is
// rows[x*D() : (x+1)*D()]) and writes each winner — or cluster.Outlier —
// into out[x]. Beyond the one shape check it is allocation-free, and because
// the assigner is immutable any number of goroutines may run batches
// concurrently on disjoint outputs.
func (a *Assigner) AssignBatch(rows []float64, out []int) error {
	if len(rows) != len(out)*a.d {
		return fmt.Errorf("assigner: %d row values for %d points of dimensionality %d", len(rows), len(out), a.d)
	}
	for x := range out {
		out[x] = a.score(rows[x*a.d : (x+1)*a.d])
	}
	return nil
}

// score is the Step-3 rule: the point's improvement of cluster i is
// Σ_t (1 − diff²/ŝ²) over i's selected dimensions in ascending order, and
// the winner is the cluster with the largest strictly positive improvement
// (ties keep the lowest index); a point improving no cluster is an outlier.
func (a *Assigner) score(row []float64) int {
	bestDelta := 0.0
	bestC := cluster.Outlier
	for i := range a.clusters {
		fc := &a.clusters[i]
		rep, sHat := fc.Rep, fc.SHat
		delta := 0.0
		for t, j := range fc.Dims {
			diff := row[j] - rep[t]
			delta += 1 - diff*diff/sHat[t]
		}
		if delta > bestDelta {
			bestDelta = delta
			bestC = i
		}
	}
	return bestC
}
