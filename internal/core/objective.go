package core

import (
	"math"
	"slices"

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
	if cap(s.evals) < d {
		s.evals = make([]dimEval, d)
	}
	s.evals = s.evals[:d]
	s.evaluateRange(ds, members, thr, 0, d, s.evals)
	return s.evals
}

// evaluateRange is evaluateDims on the dimensions [lo, hi) alone: it writes
// their outcomes into out[lo:hi] and no other entry of out. A dimension's
// outcome reads nothing but its own column and threshold, so the column
// ranges of one evaluation may run on separate scratches, in any order, and
// give exactly the whole-range outcomes.
func (s *evalScratch) evaluateRange(ds *dataset.Dataset, members []int, thr *thresholds, lo, hi int, out []dimEval) {
	ni := len(members)
	if ni == 0 {
		for j := lo; j < hi; j++ {
			out[j] = dimEval{phi: math.Inf(-1)}
		}
		return
	}
	accs := s.accumulate(ds, members, lo, hi)
	s.col = growFloats(s.col, ni)
	scale := thr.scale(ni)
	for t := range accs {
		j, r := lo+t, &accs[t]
		variance := r.Variance()
		sHat := thr.globalVar[j] * scale
		if !(variance < sHat) {
			out[j] = dimEval{phi: math.Inf(-1)}
			continue
		}
		med := stats.MedianInPlace(ds.GatherColumn(members, j, s.col))
		diff := r.Mean() - med
		disp := variance + diff*diff
		phi := float64(ni-1) * (1 - disp/sHat)
		out[j] = dimEval{phi: phi, median: med, hasMedian: true, selected: disp < sHat}
	}
}

// selectedDims finishes Procedure SelectDim (Listing 1 of the paper) from
// one evaluation's outcomes: it returns the dimensions with
// s²_ij + (µ_ij − µ̃_ij)² < ŝ²_ij, ascending, in a freshly allocated slice
// the caller may retain.
func selectedDims(evals []dimEval) []int {
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

// evalRecord is a cluster's record of its last Step-4 evaluation: the
// member list, the dimensions SelectDim selected, φ_i, and every median the
// kernel took, as sparse (dimension, median) pairs. Within a restart the
// outcome is a pure function of the member list: ŝ²_ij = s²_j · scale(n_i)
// depends on the list only through its length, and the kernel reads nothing
// but the member rows and those thresholds. So when Step 3 hands a cluster
// back the list it evaluated last, the record is reused as it stands. A
// restore or a bad-cluster replacement changes the cluster's representative
// and dims, never that function, so neither touches the record. Its buffers
// grow to their high-water mark and are reused.
type evalRecord struct {
	valid   bool // the fields below describe members
	members []int
	dims    []int
	phi     float64
	medians []dimMedian // ascending dimension
}

// dimMedian is the median µ̃_ij one evaluation took on dimension dim.
type dimMedian struct {
	dim    int
	median float64
}

// evaluate makes r the record of members: it runs SelectDim + φ_i through
// the columnar kernel on scratch s, unless r already records exactly this
// list. φ_i adds the selected φ_ij in ascending dimension order.
func (r *evalRecord) evaluate(ds *dataset.Dataset, members []int, thr *thresholds, s *evalScratch) {
	if r.valid && slices.Equal(r.members, members) {
		return
	}
	evals := evaluateDims(ds, members, thr, s)
	r.members = append(r.members[:0], members...)
	r.dims, r.medians = r.dims[:0], r.medians[:0]
	phi := 0.0
	for j, e := range evals {
		if e.hasMedian {
			r.medians = append(r.medians, dimMedian{dim: j, median: e.median})
		}
		if e.selected {
			r.dims = append(r.dims, j)
			phi += e.phi
		}
	}
	r.phi = phi
	r.valid = true
}

// overallPhi normalizes the summed cluster scores by n·d (Equation 1).
func overallPhi(sum float64, n, d int) float64 {
	return sum / (float64(n) * float64(d))
}
