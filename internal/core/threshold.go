package core

import (
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// thresholds computes the selection thresholds ŝ²_ij of §4.1. Under scheme
// m the threshold is m·s²_j, independent of the cluster. Under scheme p it
// is s²_j·χ²_inv(p, n_i−1)/(n_i−1), which depends on the cluster size n_i;
// the chi-square factor is cached per size. The cache is mutex-guarded
// because Step 4 evaluates the clusters of one restart concurrently, one
// per worker slot, each at its own size (Step 3 packs its thresholds
// serially); everything else here is immutable after construction.
type thresholds struct {
	scheme    ThresholdScheme
	m, p      float64
	globalVar []float64 // s²_j per dimension

	mu          sync.Mutex
	factorCache map[int]float64 // scheme p: n_i -> χ²_inv(p, n−1)/(n−1)
}

func newThresholds(ds *dataset.Dataset, opts Options) *thresholds {
	t := &thresholds{
		scheme:      opts.Scheme,
		m:           opts.M,
		p:           opts.P,
		globalVar:   make([]float64, ds.D()),
		factorCache: make(map[int]float64),
	}
	for j := 0; j < ds.D(); j++ {
		t.globalVar[j] = ds.ColVariance(j)
	}
	return t
}

// factor returns the scheme-p multiplier for a cluster of size ni. Sizes
// below 2 are clamped to 2 (a singleton has no sample variance to test).
func (t *thresholds) factor(ni int) float64 {
	if ni < 2 {
		ni = 2
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.factorCache[ni]; ok {
		return f
	}
	nu := float64(ni - 1)
	q, err := stats.ChiSquareQuantile(t.p, nu)
	if err != nil {
		// p was validated in (0,1) and nu >= 1; reaching here means a
		// numerical non-convergence. Fall back to the asymptotic value
		// (χ²_inv(p,ν)/ν → 1): equivalent to scheme m with m = 1.
		q = nu
	}
	f := q / nu
	t.factorCache[ni] = f
	return f
}

// scale returns the multiplier every dimension's threshold shares at cluster
// size ni, so that ŝ²_ij = s²_j · scale(n_i): m under scheme m, the cached
// chi-square factor under scheme p. A caller that needs many dimensions of
// one cluster takes the scale once: under scheme p every value call takes
// the factor mutex.
func (t *thresholds) scale(ni int) float64 {
	if t.scheme == SchemeP {
		return t.factor(ni)
	}
	return t.m
}

// value returns ŝ²_ij for dimension j and cluster size ni.
func (t *thresholds) value(j, ni int) float64 { return t.globalVar[j] * t.scale(ni) }

// values returns ŝ²_ij for each dimension of dims at cluster size ni, the
// same bits value gives, with the scale taken once.
func (t *thresholds) values(dims []int, ni int) []float64 {
	scale := t.scale(ni)
	out := make([]float64, len(dims))
	for u, j := range dims {
		out[u] = t.globalVar[j] * scale
	}
	return out
}

// dispersion returns s²_ij + (µ_ij − µ̃_ij)², the quantity Lemma 1 compares
// against ŝ²_ij, for the projections of members on dimension j. buf is
// caller-provided scratch (capacity >= len(members), consumed by the median)
// so a per-dimension caller such as phiIJ pays no allocation per call.
func dispersion(ds *dataset.Dataset, members []int, j int, buf []float64) float64 {
	if len(members) == 0 {
		return math.Inf(1)
	}
	return dispersionColumn(ds.GatherColumn(members, j, buf))
}
