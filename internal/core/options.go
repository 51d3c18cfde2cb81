// Package core implements SSPC — Semi-Supervised Projected Clustering —
// the algorithm of Yip, Cheung and Ng (ICDE 2005). SSPC is a partitional
// k-medoid-style method whose objective function φ folds dimension selection
// into the optimization (Lemma 1 of the paper) and whose initialization can
// exploit two kinds of domain knowledge: labeled objects (Io) and labeled
// dimensions (Iv).
package core

import (
	"errors"
	"fmt"

	"repro/internal/dataset"
)

// ThresholdScheme selects how the dimension-selection threshold ŝ²_ij is
// derived from the global variance s²_j (paper §4.1).
type ThresholdScheme int

const (
	// SchemeM sets ŝ²_ij = m·s²_j for a user parameter m ∈ (0,1]. It makes
	// no distributional assumptions.
	SchemeM ThresholdScheme = iota
	// SchemeP sets ŝ²_ij from a chi-square quantile so that an irrelevant
	// dimension is selected with probability at most p, assuming Gaussian
	// global populations.
	SchemeP
)

func (s ThresholdScheme) String() string {
	switch s {
	case SchemeM:
		return "m"
	case SchemeP:
		return "p"
	}
	return fmt.Sprintf("ThresholdScheme(%d)", int(s))
}

// Representative selects what replaces a cluster's representative after each
// iteration. The paper uses the cluster median (robustness design goal #3);
// the mean is provided for the ablation study.
type Representative int

const (
	// MedianRepresentative replaces representatives with the cluster
	// median, as the paper specifies.
	MedianRepresentative Representative = iota
	// MeanRepresentative replaces representatives with the centroid
	// (ablation).
	MeanRepresentative
)

// InitOrder controls the order in which seed groups are created. The paper
// initializes clusters with more knowledge first (§4.2); random order is an
// ablation.
type InitOrder int

const (
	// KnowledgeFirst creates seed groups in the paper's order: both kinds
	// of inputs, objects only, dimensions only, none; larger inputs first.
	KnowledgeFirst InitOrder = iota
	// RandomOrder shuffles the private seed group creation order
	// (ablation).
	RandomOrder
)

// Options configures a run of SSPC. The zero value is not runnable; use
// DefaultOptions(k) and adjust.
type Options struct {
	// K is the target number of clusters.
	K int

	// Scheme chooses between the m and p threshold schemes; M and P are
	// the respective parameters. The paper suggests 0.3 ≤ m ≤ 0.7 and
	// 0.01 ≤ p ≤ 0.2 when nothing better is known.
	Scheme ThresholdScheme
	M      float64
	P      float64

	// Knowledge carries the labeled objects and labeled dimensions; nil or
	// empty means fully unsupervised.
	Knowledge *dataset.Knowledge

	// GridDims is c, the number of building dimensions per grid (paper
	// default 3). Grids is g, the number of grids per seed group (paper
	// example: 20). GridBins is the number of equi-width cells per
	// building dimension.
	GridDims int
	Grids    int
	GridBins int

	// PublicGroups is the number of shared seed groups for clusters
	// without knowledge; 0 means max(2K, 10).
	PublicGroups int

	// MaxStall stops the main loop after this many iterations without an
	// improvement of the best objective score. MaxIterations is a hard
	// cap.
	MaxStall      int
	MaxIterations int

	// Representative and Order select the ablation variants described
	// above.
	Representative Representative
	Order          InitOrder

	// Seed drives all randomized choices.
	Seed int64

	// Restarts is the number of independent randomized restarts of the main
	// loop; the result with the best objective φ is returned (ties go to the
	// lowest restart index). <= 0 means 1. Restart r draws every random
	// choice from a splitmix-derived child seed of Seed, so results are a
	// pure function of (Options, Dataset) regardless of Workers.
	Restarts int

	// Workers bounds the total worker budget: restarts run concurrently on
	// up to this many goroutines, and workers left over (when Workers >
	// Restarts) parallelize the assignment step inside each restart.
	// <= 0 means runtime.GOMAXPROCS(0). The worker count never changes the
	// result, only the wall-clock time.
	Workers int

	// EarlyStop, when > 0, streams the restarts instead of running a fixed
	// best-of-Restarts: restarts launch lazily and the run stops once the
	// best objective φ has not improved for EarlyStop consecutive restarts
	// (judged in restart-index order, so the outcome is identical for every
	// Workers value). Restarts stays the hard cap. 0 (the default) runs all
	// Restarts unconditionally — byte-identical to the pre-streaming
	// engine.
	EarlyStop int

	// Trace optionally observes initialization and every iteration; nil
	// (the default) costs nothing.
	Trace *Trace
}

// DefaultOptions returns the paper's default configuration for k clusters
// with threshold scheme m = 0.5.
func DefaultOptions(k int) Options {
	return Options{
		K:             k,
		Scheme:        SchemeM,
		M:             0.5,
		P:             0.1,
		GridDims:      3,
		Grids:         20,
		GridBins:      6,
		MaxStall:      10,
		MaxIterations: 60,
	}
}

// normalized fills defaults and validates against the dataset shape.
func (o Options) normalized(ds *dataset.Dataset) (Options, error) {
	if ds == nil {
		return o, errors.New("sspc: nil dataset")
	}
	if o.K <= 0 {
		return o, fmt.Errorf("sspc: K = %d", o.K)
	}
	if o.K > ds.N() {
		return o, fmt.Errorf("sspc: K = %d exceeds n = %d", o.K, ds.N())
	}
	switch o.Scheme {
	case SchemeM:
		if o.M <= 0 || o.M > 1 {
			return o, fmt.Errorf("sspc: m = %v out of (0,1]", o.M)
		}
	case SchemeP:
		if o.P <= 0 || o.P >= 1 {
			return o, fmt.Errorf("sspc: p = %v out of (0,1)", o.P)
		}
	default:
		return o, fmt.Errorf("sspc: unknown threshold scheme %d", o.Scheme)
	}
	if o.GridDims <= 0 {
		o.GridDims = 3
	}
	if o.GridDims > ds.D() {
		o.GridDims = ds.D()
	}
	if o.Grids <= 0 {
		o.Grids = 20
	}
	if o.GridBins < 2 {
		o.GridBins = 6
	}
	if o.PublicGroups <= 0 {
		o.PublicGroups = 2 * o.K
		if o.PublicGroups < 10 {
			o.PublicGroups = 10
		}
	}
	if o.MaxStall <= 0 {
		o.MaxStall = 10
	}
	if o.MaxIterations <= 0 {
		o.MaxIterations = 60
	}
	if o.Restarts <= 0 {
		o.Restarts = 1
	}
	if o.EarlyStop < 0 {
		o.EarlyStop = 0
	}
	if err := o.Knowledge.Validate(ds.N(), ds.D(), o.K); err != nil {
		return o, err
	}
	return o, nil
}
