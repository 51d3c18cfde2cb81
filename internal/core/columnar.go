package core

import (
	"context"
	"math"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// The columnar evaluation kernel. Step 4's SelectDim pass (Lemma 1 /
// Listing 1 of the paper) scans all d dimensions over all cluster members —
// per the paper's own cost analysis the dominant O(n·d) term of each
// iteration. The kernel splits that pass in two:
//
//   - One row-major pass over the member rows (Dataset.Row, no copy) folds
//     every value into d per-dimension Welford accumulators.
//   - A median is taken only for the dimensions whose sample variance is
//     below the threshold, s²_ij < ŝ²_ij. Lemma 1 keeps v_j only if
//     s²_ij + (µ_ij − µ̃_ij)² < ŝ²_ij, and fl(s² + x) ≥ s² for every x ≥ 0,
//     so s² ≥ ŝ² rules v_j out whatever the median is. Such a dimension
//     comes back unselected with φ_ij = −Inf. On clusters as
//     low-dimensional as the paper targets, that is almost every dimension.
//
// Bit-identity argument, relied on by every golden pin and conformance leg:
// for each dimension j the kernel feeds the members' projections to
// stats.Running in member order — exactly the order the At-scan used — and
// every median it takes gathers the column in that same member order
// (Dataset.GatherColumn) before stats.MedianInPlace, so the quickselect
// pivot walk is identical. Every selection bit equals the At scan's, and so
// does every φ_ij except the −Inf of a dimension whose median is skipped.
// evaluateDimsReference below keeps the pre-kernel scan as the executable
// form of this argument (TestColumnarMatchesReference) and as the baseline
// leg of BenchmarkEvaluateColumnar.

// evalScratch is one worker slot's reusable buffers for the columnar
// evaluation kernel. col grows to the largest cluster seen and is then
// reused, so steady-state evaluations allocate nothing
// (TestEvaluateZeroAllocSteadyState).
type evalScratch struct {
	accs  []stats.Running // per-dimension Welford accumulators
	col   []float64       // one gathered column, for the medians that are taken
	evals []dimEval       // per-dimension outcomes, len d
}

func newEvalScratch(d int) *evalScratch {
	return &evalScratch{
		accs:  make([]stats.Running, d),
		evals: make([]dimEval, d),
	}
}

// growFloats returns buf resized to n values, reallocating only when the
// capacity is short — the lazy-growth discipline every kernel buffer uses.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// accumulate folds the members' values on the dimensions [lo, hi) into
// Welford accumulators and returns them, accs[t] for dimension lo+t. The pass
// is row-major, straight from the dataset's rows: Welford's recurrence is a
// serial chain of dependent divisions per dimension, so a column-at-a-time
// scan would be bound by division latency, while the row-major pass
// interleaves the range's independent chains and lets the divider pipeline
// them. Per dimension the Add sequence is still exactly member order — the
// same operations in the same order as the At scan, just scheduled across
// dimensions, and the same wherever the range's edges fall.
func (s *evalScratch) accumulate(ds *dataset.Dataset, members []int, lo, hi int) []stats.Running {
	if cap(s.accs) < hi-lo {
		s.accs = make([]stats.Running, hi-lo)
	}
	accs := s.accs[:hi-lo]
	clear(accs)
	for _, i := range members {
		for t, v := range ds.Row(i)[lo:hi] {
			accs[t].Add(v)
		}
	}
	return accs
}

// dispersionColumn returns s²_ij + (µ_ij − µ̃_ij)² over one gathered column.
// It consumes col (the median is computed in place); callers pass scratch.
func dispersionColumn(col []float64) float64 {
	if len(col) == 0 {
		return math.Inf(1)
	}
	var r stats.Running
	for _, v := range col {
		r.Add(v)
	}
	med := stats.MedianInPlace(col)
	diff := r.Mean() - med
	return r.Variance() + diff*diff
}

// evaluateDimsReference is the pre-kernel per-element At column scan, kept
// verbatim as the bit-identity oracle for the columnar kernel and as the
// baseline leg of BenchmarkEvaluateColumnar. buf needs len >= len(members).
func evaluateDimsReference(ds *dataset.Dataset, members []int, thr *thresholds, buf []float64, out []dimEval) []dimEval {
	d := ds.D()
	out = out[:0]
	ni := len(members)
	if ni == 0 {
		for j := 0; j < d; j++ {
			out = append(out, dimEval{phi: math.Inf(-1)})
		}
		return out
	}
	for j := 0; j < d; j++ {
		var r stats.Running
		for t, i := range members {
			v := ds.At(i, j)
			buf[t] = v
			r.Add(v)
		}
		med := stats.MedianInPlace(buf[:ni])
		diff := r.Mean() - med
		disp := r.Variance() + diff*diff
		sHat := thr.value(j, ni)
		phi := float64(ni-1) * (1 - disp/sHat)
		out = append(out, dimEval{phi: phi, selected: disp < sHat})
	}
	return out
}

// EvalBench exposes the two implementations of the Step-4 dimension
// evaluation — the columnar kernel and the pre-kernel per-element At
// column scan — so the repository benchmark suite (BenchmarkEvaluateColumnar)
// can chart the kernel against its baseline.
// Both methods return Σ φ_ij over the selected dimensions, as a sink the
// compiler cannot elide. Not safe for concurrent use.
type EvalBench struct {
	ds      *dataset.Dataset
	thr     *thresholds
	scratch *evalScratch
	buf     []float64
	out     []dimEval
}

// NewEvalBench builds an evaluation benchmark harness over the dataset with
// the thresholds the given options imply.
func NewEvalBench(ds *dataset.Dataset, opts Options) (*EvalBench, error) {
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	return &EvalBench{
		ds:      ds,
		thr:     newThresholds(ds, opts),
		scratch: newEvalScratch(ds.D()),
		buf:     make([]float64, ds.N()),
		out:     make([]dimEval, 0, ds.D()),
	}, nil
}

// Columnar evaluates the members through the columnar kernel.
func (b *EvalBench) Columnar(members []int) float64 {
	return sumSelected(evaluateDims(b.ds, members, b.thr, b.scratch))
}

// Reference evaluates the members through the pre-kernel At column scan.
func (b *EvalBench) Reference(members []int) float64 {
	b.out = evaluateDimsReference(b.ds, members, b.thr, b.buf, b.out)
	return sumSelected(b.out)
}

func sumSelected(evals []dimEval) float64 {
	phi := 0.0
	for _, e := range evals {
		if e.selected {
			phi += e.phi
		}
	}
	return phi
}

// ParallelEvalBench exposes the cluster-chunked Step-4 evaluation path —
// assigner.evaluate, one cluster per engine.ParallelChunksCtx chunk with
// per-worker kernel scratch, then the φ_i slots summed in cluster-index
// order — so the repository benchmark suite (BenchmarkEvaluateParallel)
// can chart its scaling across worker counts. Evaluate returns Σ_i φ_i,
// which is bit-identical for every worker count (the conformance suite's
// parallel-evaluation leg pins the same property end to end). Not safe for
// concurrent use.
type ParallelEvalBench struct {
	ds       *dataset.Dataset
	thr      *thresholds
	par      *assigner
	clusters []*state
}

// NewParallelEvalBench builds the harness over fixed cluster member lists
// (one per cluster, as Step 3 would produce them) with `workers` goroutines
// for the chunked evaluation.
func NewParallelEvalBench(ds *dataset.Dataset, opts Options, membersByCluster [][]int, workers int) (*ParallelEvalBench, error) {
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	k := len(membersByCluster)
	clusters := make([]*state, k)
	for i, members := range membersByCluster {
		clusters[i] = &state{members: members, prevSize: max(2, len(members))}
	}
	return &ParallelEvalBench{
		ds:       ds,
		thr:      newThresholds(ds, opts),
		par:      newAssigner(ds.D(), k, workers),
		clusters: clusters,
	}, nil
}

// Evaluate runs one full Step-4 pass (SelectDim + φ_i on every cluster,
// chunked across the harness's workers) and returns Σ_i φ_i. The member
// lists never change between calls, so it first drops every cluster's
// evaluation record; otherwise every call after the first would reuse it
// and measure no kernel work.
func (b *ParallelEvalBench) Evaluate() float64 {
	for _, st := range b.clusters {
		st.last.valid = false
	}
	total, err := b.par.evaluate(context.Background(), b.ds, b.clusters, b.thr)
	if err != nil {
		// Background never cancels; only an injected fault can land here,
		// and the bench harness runs with the registry disarmed.
		panic(err)
	}
	return total
}
