package core

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
)

// The two inner loops of one SSPC iteration — the point→cluster assignment
// (Step 3, O(n·K·|V|)) and the per-cluster dimension re-selection (Step 4,
// O(n·d)) — dominate a restart's runtime. Both are embarrassingly parallel
// with disjoint writes, so the assigner runs them through the engine's
// chunked primitives: every chunk writes exclusively to its own output slots,
// and all floating-point accumulation happens either per-point (assignment)
// or in a serial ordered reduction over cluster indices (evaluation), so
// where the chunk boundaries fall never matters. Workers therefore tunes
// wall-clock time only; the output is byte-identical to the serial loop.
//
// Both loops are also allocation-free in steady state
// (TestAssignZeroAllocSteadyState, TestEvaluateZeroAllocSteadyState): every
// buffer — the packed assignment triples, the kernel scratch, each
// cluster's evaluation record and dims — lives on the assigner, its
// per-slot scratch or the cluster state and grows to a high-water
// mark, and the chunk closures are built once at construction instead of
// per call. The call state the closures need (dataset, clusters, outputs) is
// published to assigner fields before each ParallelChunksCtx call; on the
// parallel path ParallelChunksCtx's WaitGroup provides the happens-before
// edge, and a field is only written between calls, never during one.

// assigner holds the worker budget and per-worker scratch of one restart.
type assigner struct {
	workers int
	// scratch holds one kernel scratch per evaluation slot: min(workers, k)
	// slots, at least one. A chunk only touches the slot of its worker
	// index, which one goroutine owns for the duration of the call.
	scratch []*evalScratch

	// scorer runs the Step-3 rule over the clusters' (dims, rep, ŝ²)
	// triples, repacked by every assign call. It is never validated: before
	// the first re-selection a zero-variance column can give ŝ² = 0, and
	// runOnce then drops Fitted (cluster.Servable).
	scorer Assigner

	// Call state read by the pre-built chunk closures.
	ds       *dataset.Dataset
	clusters []*state
	thr      *thresholds
	out      []int
	assignFn func(worker, lo, hi int)
	evalFn   func(worker, lo, hi int)
}

// newAssigner sizes the scratch slots for a dataset of d dimensions
// clustered into k clusters, with at most `workers` goroutines per
// iteration step.
func newAssigner(d, k, workers int) *assigner {
	if workers < 1 {
		workers = 1
	}
	a := &assigner{
		workers: workers,
		scratch: make([]*evalScratch, max(1, min(workers, k))), // evaluation has only k units of work
		scorer:  Assigner{d: d, clusters: make([]cluster.FittedCluster, k)},
	}
	for w := range a.scratch {
		a.scratch[w] = newEvalScratch(d)
	}
	for i := range a.scorer.clusters {
		fc := &a.scorer.clusters[i]
		fc.Dims = make([]int, 0, d)
		fc.Rep = make([]float64, 0, d)
		fc.SHat = make([]float64, 0, d)
	}
	a.assignFn = func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			a.out[x] = a.scorer.score(a.ds.Row(x))
		}
	}
	a.evalFn = func(worker, lo, hi int) {
		s := a.scratch[worker]
		for i := lo; i < hi; i++ {
			st := a.clusters[i]
			st.last.evaluate(a.ds, st.members, a.thr, s)
			st.dims = append(st.dims[:0], st.last.dims...)
			st.phi = st.last.phi
		}
	}
	return a
}

// snapshotFitted copies the triples of the most recent assign call into dst
// (one FittedCluster per cluster, slices reused across calls), so the main
// loop can keep the exact scoring state that produced its best assignment.
// Must be called between assign calls, never during one.
func (a *assigner) snapshotFitted(dst []cluster.FittedCluster) {
	for i := range dst {
		dst[i].CopyFrom(&a.scorer.clusters[i])
	}
}

// assign scores every object against all K candidate clusters and writes the
// winning cluster (or cluster.Outlier) into assign[x], in parallel over
// engine-sized point-range chunks. Each point goes through a.scorer's Step-3
// rule, the one a served model runs, and each chunk writes only
// assign[lo:hi], so the result does not depend on workers or chunk
// boundaries. The per-cluster (dims, rep, ŝ²) triples are packed into
// a.scorer once per call, so the O(n·K·|V|) inner loop reads three dense
// arrays instead of indirecting through cluster state. The packing runs
// serially before the chunks start, takes cluster i's thresholds at its
// previous size st.prevSize, and is where a lazy representative takes the
// medians of its selected dimensions.
// A canceled ctx aborts the scan between chunks and returns its cause; the
// partially written assign slice must then be discarded by the caller.
func (a *assigner) assign(ctx context.Context, ds *dataset.Dataset, clusters []*state, thr *thresholds, assign []int) error {
	for i, st := range clusters {
		scale := thr.scale(st.prevSize)
		fc := &a.scorer.clusters[i]
		rep, sHat := fc.Rep[:0], fc.SHat[:0]
		for _, j := range st.dims {
			rep = append(rep, st.rep.at(ds, j))
			sHat = append(sHat, thr.globalVar[j]*scale)
		}
		fc.Dims, fc.Rep, fc.SHat = append(fc.Dims[:0], st.dims...), rep, sHat
	}
	a.ds, a.out = ds, assign
	err := engine.ParallelChunksCtx(ctx, len(assign), 0, a.workers, a.assignFn)
	a.ds, a.out = nil, nil
	return err
}

// evaluate reruns SelectDim on every cluster's current members and returns
// Σ_i φ_i. The clusters run through engine.ParallelChunksCtx one per chunk,
// each evaluated on its own worker-slot kernel scratch, and each chunk
// writes only its own cluster's state (st.last, st.dims, st.phi), so the
// parallel writes stay disjoint. A cluster whose members are the list its
// record already holds skips the kernel; either way its dims and φ_i are
// installed from the record. After the call the st.phi slots are summed
// serially in ascending cluster index — the same additions in the same
// order for every worker count.
func (a *assigner) evaluate(ctx context.Context, ds *dataset.Dataset, clusters []*state, thr *thresholds) (float64, error) {
	a.ds, a.clusters, a.thr = ds, clusters, thr
	err := engine.ParallelChunksCtx(ctx, len(clusters), 1, len(a.scratch), a.evalFn)
	a.ds, a.clusters, a.thr = nil, nil, nil
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, st := range clusters {
		total += st.phi
	}
	return total, nil
}
