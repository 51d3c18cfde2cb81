// Package synth generates synthetic datasets following the data model of
// Section 3 of the SSPC paper, with the parameters of its Section 5
// evaluation: each hidden class has a set of relevant dimensions on which
// its members are drawn from a narrow local Gaussian, while every other
// value comes from a wide uniform global distribution. The package also
// provides outlier injection, the two-groupings combinator of §5.4, and the
// knowledge sampler that draws the labeled objects / labeled dimensions fed
// to SSPC in §5.3.
package synth

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Config parameterizes a synthetic dataset.
type Config struct {
	N int // number of objects (excluding none: outliers are part of N)
	D int // number of dimensions
	K int // number of hidden classes

	// AvgDims is the average number of relevant dimensions per class
	// (the paper's l_real). DimStdDev spreads per-class counts around it;
	// 0 makes every class have exactly AvgDims relevant dimensions.
	AvgDims   int
	DimStdDev float64

	// Global distribution: uniform on [GlobalLo, GlobalHi). The paper's
	// experiments use a uniform global distribution.
	GlobalLo, GlobalHi float64

	// Local Gaussian standard deviation, as a fraction of the global range,
	// drawn uniformly from [LocalSDMinFrac, LocalSDMaxFrac] per (class,
	// dimension). The paper uses 1%–10% of the value range.
	LocalSDMinFrac, LocalSDMaxFrac float64

	// OutlierFrac of the N objects are outliers: uniform on every
	// dimension, labeled −1.
	OutlierFrac float64

	// MinClusterFrac bounds the smallest class size as a fraction of the
	// non-outlier objects; class sizes are otherwise random.
	MinClusterFrac float64

	Seed int64
}

// Default fills zero fields with the paper's Figure 3 setup.
func (c Config) Default() Config {
	if c.N == 0 {
		c.N = 1000
	}
	if c.D == 0 {
		c.D = 100
	}
	if c.K == 0 {
		c.K = 5
	}
	if c.AvgDims == 0 {
		c.AvgDims = 10
	}
	if c.GlobalHi == c.GlobalLo {
		c.GlobalLo, c.GlobalHi = 0, 100
	}
	if c.LocalSDMinFrac == 0 && c.LocalSDMaxFrac == 0 {
		c.LocalSDMinFrac, c.LocalSDMaxFrac = 0.01, 0.10
	}
	if c.MinClusterFrac == 0 {
		c.MinClusterFrac = 0.6 / float64(c.K)
	}
	return c
}

func (c Config) validate() error {
	if c.N < c.K {
		return fmt.Errorf("synth: N=%d < K=%d", c.N, c.K)
	}
	if c.K <= 0 || c.D <= 0 {
		return errors.New("synth: K and D must be positive")
	}
	if c.AvgDims < 1 || c.AvgDims > c.D {
		return fmt.Errorf("synth: AvgDims=%d out of [1,%d]", c.AvgDims, c.D)
	}
	if c.GlobalHi <= c.GlobalLo {
		return errors.New("synth: empty global range")
	}
	if c.OutlierFrac < 0 || c.OutlierFrac >= 1 {
		return errors.New("synth: OutlierFrac out of [0,1)")
	}
	if c.LocalSDMinFrac <= 0 || c.LocalSDMaxFrac < c.LocalSDMinFrac {
		return errors.New("synth: bad local sd fractions")
	}
	return nil
}

// GroundTruth is a generated dataset together with everything the evaluation
// needs: true labels (−1 for outliers), the per-class relevant dimensions,
// and the local Gaussian parameters.
type GroundTruth struct {
	Data   *dataset.Dataset
	Labels []int   // len N; class in [0,K) or −1
	Dims   [][]int // per class, ascending
	// Center[class][dim] and SD[class][dim] hold the local Gaussian
	// parameters for relevant (class, dim) pairs; maps keyed by dim.
	Center []map[int]float64
	SD     []map[int]float64
	Config Config
}

// NumOutliers returns the count of objects labeled −1.
func (gt *GroundTruth) NumOutliers() int {
	c := 0
	for _, l := range gt.Labels {
		if l < 0 {
			c++
		}
	}
	return c
}

// MembersOfClass returns the object indices of class c in ascending order.
func (gt *GroundTruth) MembersOfClass(c int) []int {
	var out []int
	for i, l := range gt.Labels {
		if l == c {
			out = append(out, i)
		}
	}
	return out
}

// Generate builds a dataset per the config. Objects are laid out in a random
// order (labels shuffled) so that algorithms cannot exploit ordering.
func Generate(cfg Config) (*GroundTruth, error) {
	cfg = cfg.Default()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)

	nOutliers := int(float64(cfg.N) * cfg.OutlierFrac)
	nMembers := cfg.N - nOutliers
	if nMembers < cfg.K {
		return nil, fmt.Errorf("synth: only %d non-outlier objects for K=%d", nMembers, cfg.K)
	}

	sizes, err := clusterSizes(rng, nMembers, cfg.K, cfg.MinClusterFrac)
	if err != nil {
		return nil, err
	}

	dims := make([][]int, cfg.K)
	centers := make([]map[int]float64, cfg.K)
	sds := make([]map[int]float64, cfg.K)
	span := cfg.GlobalHi - cfg.GlobalLo
	for c := 0; c < cfg.K; c++ {
		li := cfg.AvgDims
		if cfg.DimStdDev > 0 {
			li = int(rng.Norm(float64(cfg.AvgDims), cfg.DimStdDev) + 0.5)
			if li < 2 {
				li = 2
			}
			if li > cfg.D {
				li = cfg.D
			}
		}
		picked := rng.Sample(cfg.D, li)
		sort.Ints(picked)
		dims[c] = picked
		centers[c] = make(map[int]float64, li)
		sds[c] = make(map[int]float64, li)
		for _, j := range picked {
			sd := span * rng.Uniform(cfg.LocalSDMinFrac, cfg.LocalSDMaxFrac)
			// Keep the cluster inside the global range so projections stay
			// plausible samples of the global population.
			lo := cfg.GlobalLo + 2*sd
			hi := cfg.GlobalHi - 2*sd
			if hi <= lo {
				lo, hi = cfg.GlobalLo, cfg.GlobalHi
			}
			centers[c][j] = rng.Uniform(lo, hi)
			sds[c][j] = sd
		}
	}

	// Build the label vector, then shuffle object positions.
	labels := make([]int, 0, cfg.N)
	for c := 0; c < cfg.K; c++ {
		for t := 0; t < sizes[c]; t++ {
			labels = append(labels, c)
		}
	}
	for t := 0; t < nOutliers; t++ {
		labels = append(labels, -1)
	}
	perm := rng.Perm(cfg.N)
	shuffled := make([]int, cfg.N)
	for i, p := range perm {
		shuffled[p] = labels[i]
	}
	labels = shuffled

	ds, err := dataset.New(cfg.N, cfg.D)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.N; i++ {
		c := labels[i]
		for j := 0; j < cfg.D; j++ {
			if c >= 0 {
				if mu, ok := centers[c][j]; ok {
					ds.Set(i, j, rng.Norm(mu, sds[c][j]))
					continue
				}
			}
			ds.Set(i, j, rng.Uniform(cfg.GlobalLo, cfg.GlobalHi))
		}
	}

	return &GroundTruth{
		Data:   ds,
		Labels: labels,
		Dims:   dims,
		Center: centers,
		SD:     sds,
		Config: cfg,
	}, nil
}

// clusterSizes splits n objects into k parts with each part at least
// minFrac·n, using random proportions for the remainder.
func clusterSizes(rng *stats.RNG, n, k int, minFrac float64) ([]int, error) {
	minSize := int(minFrac * float64(n))
	if minSize < 1 {
		minSize = 1
	}
	if minSize*k > n {
		return nil, fmt.Errorf("synth: min cluster size %d infeasible for n=%d k=%d", minSize, n, k)
	}
	sizes := make([]int, k)
	remaining := n - minSize*k
	weights := make([]float64, k)
	total := 0.0
	for i := range weights {
		weights[i] = rng.Float64() + 0.1
		total += weights[i]
	}
	assigned := 0
	for i := range sizes {
		extra := int(float64(remaining) * weights[i] / total)
		sizes[i] = minSize + extra
		assigned += extra
	}
	// Distribute rounding leftovers.
	for t := 0; t < remaining-assigned; t++ {
		sizes[t%k]++
	}
	return sizes, nil
}
