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
// iteration. Walking that column-wise over the row-major matrix via
// per-element Dataset.At costs a d·8-byte stride per element. The kernel
// instead copies the cluster's member rows ONCE per evaluation
// (Dataset.GatherRows: one copy per run of consecutive rows) and transposes
// them into d contiguous column buffers, so every per-dimension pass runs
// over dense sequential memory.
//
// Bit-identity argument, relied on by every golden pin and conformance leg:
// for each dimension j the kernel feeds the members' projections to
// stats.Running in member order — exactly the order the At-scan used — and
// hands stats.MedianInPlace a buffer holding those values in that same
// initial order, so the quickselect pivot walk is identical. The gather and
// transpose only move bytes; no floating-point operation is added, removed,
// or reordered. evaluateDimsReference below keeps the pre-kernel scan as the
// executable form of this argument (TestColumnarMatchesReference) and as the
// baseline leg of BenchmarkEvaluateColumnar.

// evalScratch is one worker slot's reusable buffers for the columnar
// evaluation kernel. rows and cols grow to the largest ni·d seen and are
// then reused, so steady-state evaluations allocate nothing
// (TestEvaluateZeroAllocSteadyState).
type evalScratch struct {
	rows  []float64       // gathered member rows, row-major ni×d
	cols  []float64       // transposed columns, d contiguous runs of ni values
	accs  []stats.Running // per-dimension Welford accumulators
	evals []dimEval       // per-dimension outcomes, cap d
}

func newEvalScratch(d int) *evalScratch {
	return &evalScratch{
		accs:  make([]stats.Running, d),
		evals: make([]dimEval, 0, d),
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

// gatherColumns fills s.cols with the members' projections — column j of the
// cluster occupies s.cols[j*ni : (j+1)*ni], in member order — and
// simultaneously folds every value into the per-dimension Welford
// accumulators s.accs. One bulk gather plus one fused transpose+accumulate
// pass replaces d strided scans of the full matrix.
//
// Fusing the accumulation into the row-major transpose is also where most of
// the kernel's speed comes from: Welford's recurrence is a serial chain of
// dependent divisions per dimension, so the column-major scan is bound by
// division latency (ni dependent divides per dimension, one chain at a
// time), while the row-major pass interleaves d independent chains and lets
// the divider pipeline them. Per dimension the Add sequence is still exactly
// member order — the same operations in the same order as the At scan, just
// scheduled across dimensions — so every result bit matches
// (TestColumnarMatchesReference).
func (s *evalScratch) gatherColumns(ds *dataset.Dataset, members []int) {
	ni, d := len(members), ds.D()
	s.rows = growFloats(s.rows, ni*d)
	s.cols = growFloats(s.cols, ni*d)
	if cap(s.accs) < d {
		s.accs = make([]stats.Running, d)
	}
	ds.GatherRows(members, s.rows)
	accs := s.accs[:d]
	for j := range accs {
		accs[j] = stats.Running{}
	}
	for t := 0; t < ni; t++ {
		base := t * d
		for j := 0; j < d; j++ {
			v := s.rows[base+j]
			s.cols[j*ni+t] = v
			accs[j].Add(v)
		}
	}
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
// evaluation — the columnar gather kernel and the pre-kernel per-element At
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

// Columnar evaluates the members through the gather/transpose kernel.
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

// ParallelEvalBench exposes the cluster-chunked Step-4 evaluation path — the
// engine.MapChunksIntoCtx map-reduce assigner.evaluate runs, one cluster per chunk
// with per-worker gather scratch and the φ fold in cluster-index order — so
// the repository benchmark suite (BenchmarkEvaluateParallel) can chart its
// scaling across worker counts. Evaluate returns Σ_i φ_i, which is
// bit-identical for every worker count (the conformance suite's
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
		clusters[i] = &state{members: members, prevSize: maxInt(2, len(members))}
	}
	return &ParallelEvalBench{
		ds:       ds,
		thr:      newThresholds(ds, opts),
		par:      newAssigner(ds.N(), ds.D(), k, workers),
		clusters: clusters,
	}, nil
}

// Evaluate runs one full Step-4 pass (SelectDim + φ_i on every cluster,
// chunked across the harness's workers) and returns Σ_i φ_i.
func (b *ParallelEvalBench) Evaluate() float64 {
	total, err := b.par.evaluate(context.Background(), b.ds, b.clusters, b.thr)
	if err != nil {
		// Background never cancels; only an injected fault can land here,
		// and the bench harness runs with the registry disarmed.
		panic(err)
	}
	return total
}
