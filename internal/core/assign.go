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
// per-worker scratch slots or the cluster state and grows to a high-water
// mark, and the chunk closures are built once at construction instead of
// per call. The call state the closures need (dataset, clusters, outputs) is
// published to assigner fields before each ParallelChunksCtx call; on the
// parallel path ParallelChunksCtx's WaitGroup provides the happens-before
// edge, and a field is only written between calls, never during one.

// assigner holds the worker budget and per-worker scratch of one restart.
type assigner struct {
	workers int
	scratch *engine.Scratch[*evalScratch]

	// Packed per-cluster assignment triples: for cluster i and its t-th
	// selected dimension j = packDims[i][t], packRep[i][t] is the
	// representative's projection on j and packSHat[i][t] the selection
	// threshold ŝ²_ij — the three values the Step-3 inner loop reads,
	// contiguous instead of scattered over st.dims / st.rep / the thresholds.
	packDims [][]int
	packRep  [][]float64
	packSHat [][]float64

	// Call state read by the pre-built chunk closures.
	ds       *dataset.Dataset
	clusters []*state
	thr      *thresholds
	out      []int
	assignFn func(worker, lo, hi int)
	evalFn   func(worker, lo, hi int)
}

// newAssigner sizes the scratch pool for a dataset of n objects and d
// dimensions clustered into k clusters, with at most `workers` goroutines
// per iteration step.
func newAssigner(n, d, k, workers int) *assigner {
	if workers < 1 {
		workers = 1
	}
	slots := workers
	if slots > k {
		slots = k // evaluation has only k units of work
	}
	a := &assigner{
		workers:  workers,
		scratch:  engine.NewScratch(slots, func() *evalScratch { return newEvalScratch(d) }),
		packDims: make([][]int, k),
		packRep:  make([][]float64, k),
		packSHat: make([][]float64, k),
	}
	for i := 0; i < k; i++ {
		a.packDims[i] = make([]int, 0, d)
		a.packRep[i] = make([]float64, 0, d)
		a.packSHat[i] = make([]float64, 0, d)
	}
	a.assignFn = func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			a.out[x] = scorePoint(a.ds.Row(x), a.packDims, a.packRep, a.packSHat)
		}
	}
	a.evalFn = func(worker, lo, hi int) {
		s := a.scratch.Get(worker)
		for i := lo; i < hi; i++ {
			st := a.clusters[i]
			st.last.evaluate(a.ds, st.members, a.thr, s)
			st.dims = append(st.dims[:0], st.last.dims...)
			st.phi = st.last.phi
		}
	}
	return a
}

// scorePoint is the Step-3 scoring rule over packed per-cluster triples: the
// point's improvement of cluster i is Σ_t (1 − diff²/ŝ²) over i's selected
// dimensions in ascending order, and the winner is the cluster with the
// largest strictly positive improvement (ties keep the lowest index); a point
// improving no cluster is an outlier. Shared verbatim — same operations, same
// order — by the in-fit assignment loop above and the exported serving
// Assigner, so a persisted model scores exactly like the fit that produced
// it.
func scorePoint(row []float64, packDims [][]int, packRep, packSHat [][]float64) int {
	bestDelta := 0.0
	bestC := cluster.Outlier
	for i, dims := range packDims {
		rep, sHat := packRep[i], packSHat[i]
		delta := 0.0
		for t, j := range dims {
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

// snapshotFitted copies the packed triples of the most recent assign call
// into dst (one FittedCluster per cluster, slices reused across calls), so
// the main loop can keep the exact scoring state that produced its best
// assignment. Must be called between assign calls, never during one.
func (a *assigner) snapshotFitted(dst []cluster.FittedCluster) {
	for i := range dst {
		dst[i].Dims = append(dst[i].Dims[:0], a.packDims[i]...)
		dst[i].Rep = append(dst[i].Rep[:0], a.packRep[i]...)
		dst[i].SHat = append(dst[i].SHat[:0], a.packSHat[i]...)
	}
}

// assign scores every object against all K candidate clusters and writes the
// winning cluster (or cluster.Outlier) into assign[x], in parallel over
// engine-sized point-range chunks. Each point's score is a sum over the cluster's
// selected dimensions in ascending order — the same order as the serial
// loop — and each chunk writes only assign[lo:hi], so the result does not
// depend on workers or chunk boundaries. The per-cluster (dims, rep, ŝ²)
// triples are packed into contiguous buffers once per call, so the O(n·K·|V|)
// inner loop reads three dense arrays instead of indirecting through cluster
// state. The packing runs serially before the chunks start, takes cluster
// i's thresholds at its previous size st.prevSize, and is where a lazy
// representative takes the medians of its selected dimensions.
// A canceled ctx aborts the scan between chunks and returns its cause; the
// partially written assign slice must then be discarded by the caller.
func (a *assigner) assign(ctx context.Context, ds *dataset.Dataset, clusters []*state, thr *thresholds, assign []int) error {
	for i, st := range clusters {
		scale := thr.scale(st.prevSize)
		pd, pr, ps := a.packDims[i][:0], a.packRep[i][:0], a.packSHat[i][:0]
		for _, j := range st.dims {
			pd = append(pd, j)
			pr = append(pr, st.rep.at(ds, j))
			ps = append(ps, thr.globalVar[j]*scale)
		}
		a.packDims[i], a.packRep[i], a.packSHat[i] = pd, pr, ps
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
	err := engine.ParallelChunksCtx(ctx, len(clusters), 1, a.scratch.Slots(), a.evalFn)
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
