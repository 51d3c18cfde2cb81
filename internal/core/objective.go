package core

import (
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// The objective function of the paper (Equations 1–4):
//
//	φ    = (1/nd) Σ_i φ_i
//	φ_i  = Σ_{vj ∈ V_i} φ_ij
//	φ_ij = (n_i − 1)(1 − (s²_ij + (µ_ij − µ̃_ij)²)/ŝ²_ij)
//
// By Lemma 1, φ is maximized for a fixed partition by selecting exactly the
// dimensions with s²_ij + (µ_ij − µ̃_ij)² < ŝ²_ij, which is what SelectDim
// does. φ_ij is positive for every selected dimension and larger for tighter
// dimensions, so relevant dimensions dominate the score (design goal #2).
//
// All of the evaluators below run on the columnar kernel of columnar.go:
// one row-major Welford pass over the members, then a median only for the
// dimensions whose sample variance leaves Lemma 1 undecided, with the exact
// accumulation and gather order of the historical per-element At scan (see
// the bit-identity argument in columnar.go).

// dimEval carries the per-dimension quantities of one cluster.
type dimEval struct {
	phi    float64 // φ_ij; −Inf when the median was skipped, ≤ 0 for other unselected dims
	median float64 // µ̃_ij, valid only when hasMedian
	// hasMedian reports that the kernel took this dimension's median: it did
	// exactly when s²_ij < ŝ²_ij.
	hasMedian bool
	selected  bool
}

// evaluateDims computes the selection decision for every dimension of the
// cluster `members`, with φ_ij wherever the members' sample variance is
// below ŝ²_ij. A dimension with s²_ij ≥ ŝ²_ij fails Lemma 1 whatever its
// median, so its median is never taken: it comes back unselected with
// φ_ij = −Inf. The returned slice aliases s.evals and is valid until the next
// evaluation on s.
func evaluateDims(ds *dataset.Dataset, members []int, thr *thresholds, s *evalScratch) []dimEval {
	d := ds.D()
	out := s.evals[:0]
	ni := len(members)
	if ni == 0 {
		for j := 0; j < d; j++ {
			out = append(out, dimEval{phi: math.Inf(-1)})
		}
		s.evals = out
		return out
	}
	accs := s.accumulate(ds, members)
	s.col = growFloats(s.col, ni)
	scale := thr.scale(ni)
	for j := range accs {
		r := &accs[j]
		variance := r.Variance()
		sHat := thr.globalVar[j] * scale
		if !(variance < sHat) {
			out = append(out, dimEval{phi: math.Inf(-1)})
			continue
		}
		med := stats.MedianInPlace(ds.GatherColumn(members, j, s.col))
		diff := r.Mean() - med
		disp := variance + diff*diff
		phi := float64(ni-1) * (1 - disp/sHat)
		out = append(out, dimEval{phi: phi, median: med, hasMedian: true, selected: disp < sHat})
	}
	s.evals = out
	return out
}

// selectDims runs Procedure SelectDim (Listing 1 of the paper): it returns
// the dimensions with s²_ij + (µ_ij − µ̃_ij)² < ŝ²_ij, ascending. The
// returned slice is freshly allocated (callers retain it); the intermediate
// buffers come from s.
func selectDims(ds *dataset.Dataset, members []int, thr *thresholds, s *evalScratch) []int {
	evals := evaluateDims(ds, members, thr, s)
	var dims []int
	for j, e := range evals {
		if e.selected {
			dims = append(dims, j)
		}
	}
	return dims
}

// phiIJ returns φ_ij for one dimension (used to weight candidate
// grid-building dimensions by φ_{i'j} during initialization, §4.2.1). buf
// needs capacity for len(members) values and is consumed.
func phiIJ(ds *dataset.Dataset, members []int, j int, thr *thresholds, buf []float64) float64 {
	ni := len(members)
	if ni == 0 {
		return math.Inf(-1)
	}
	disp := dispersion(ds, members, j, buf)
	sHat := thr.value(j, ni)
	return float64(ni-1) * (1 - disp/sHat)
}

// phiCluster returns φ_i = Σ_{vj∈dims} φ_ij for a fixed dimension set. buf
// needs capacity for len(members) values and is consumed.
func phiCluster(ds *dataset.Dataset, members []int, dims []int, thr *thresholds, buf []float64) float64 {
	ni := len(members)
	if ni == 0 || len(dims) == 0 {
		return 0
	}
	total := 0.0
	for _, j := range dims {
		disp := dispersion(ds, members, j, buf)
		sHat := thr.value(j, ni)
		total += float64(ni-1) * (1 - disp/sHat)
	}
	return total
}

// clusterEval is the outcome of SelectDim + φ_i for one cluster.
type clusterEval struct {
	dims []int
	phi  float64
}

// evaluateCluster runs SelectDim on the members and returns the selected
// dimensions with the resulting φ_i. The selected dimensions are appended
// into dims[:0], so a caller that hands in a buffer of capacity d gets an
// allocation-free evaluation.
func evaluateCluster(ds *dataset.Dataset, members []int, thr *thresholds, s *evalScratch, dims []int) clusterEval {
	evals := evaluateDims(ds, members, thr, s)
	dims = dims[:0]
	phi := 0.0
	for j, e := range evals {
		if e.selected {
			dims = append(dims, j)
			phi += e.phi
		}
	}
	return clusterEval{dims: dims, phi: phi}
}

// overallPhi normalizes the summed cluster scores by n·d (Equation 1).
func overallPhi(sum float64, n, d int) float64 {
	return sum / (float64(n) * float64(d))
}
