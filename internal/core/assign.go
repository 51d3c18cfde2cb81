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
// buffer — the packed assignment triples, the per-cluster dims outputs, the
// kernel scratch, the K-slot φ fold buffer handed to
// MapChunksIntoCtx — lives on the assigner or its per-worker scratch slots, and
// the chunk closures are built once at construction instead of per call. The call state the closures need (dataset, clusters, outputs) is
// published to assigner fields before each ParallelChunksCtx call; on the
// parallel path ParallelChunksCtx's WaitGroup provides the happens-before edge,
// and a field is only written between calls, never during one.

// assigner holds the worker budget and per-worker scratch of one restart.
type assigner struct {
	workers int
	scratch *engine.Scratch[*evalScratch]
	dimsOut [][]int   // per-cluster selected-dims storage, cap d each
	phiBuf  []float64 // per-chunk φ results buffer for MapChunksIntoCtx, cap k

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
	evalFn   func(worker, lo, hi int) float64
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
		dimsOut:  make([][]int, k),
		phiBuf:   make([]float64, k),
		packDims: make([][]int, k),
		packRep:  make([][]float64, k),
		packSHat: make([][]float64, k),
	}
	for i := 0; i < k; i++ {
		a.dimsOut[i] = make([]int, 0, d)
		a.packDims[i] = make([]int, 0, d)
		a.packRep[i] = make([]float64, 0, d)
		a.packSHat[i] = make([]float64, 0, d)
	}
	a.assignFn = func(_, lo, hi int) {
		for x := lo; x < hi; x++ {
			a.out[x] = scorePoint(a.ds.Row(x), a.packDims, a.packRep, a.packSHat)
		}
	}
	a.evalFn = func(worker, lo, hi int) float64 {
		s := a.scratch.Get(worker)
		sum := 0.0
		for i := lo; i < hi; i++ {
			st := a.clusters[i]
			ev := evaluateCluster(a.ds, st.members, a.thr, s, a.dimsOut[i])
			a.dimsOut[i] = ev.dims
			st.dims = ev.dims
			st.phi = ev.phi
			// s.evals still holds this cluster's per-dimension outcomes.
			st.next.seed(st.members, s.evals)
			sum += ev.phi
		}
		return sum
	}
	return a
}

// addPhi is the ordered fold of the evaluation map-reduce. Because evaluate
// runs one cluster per chunk, each chunk value is a single φ_i and the fold
// reproduces the serial Σ_i φ_i addition order exactly.
func addPhi(acc, chunk float64) float64 { return acc + chunk }

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
// Σ_i φ_i, as one engine.MapChunksIntoCtx map-reduce over the cluster list: one
// cluster per chunk, each evaluated on its own worker-slot kernel scratch,
// with the per-chunk φ values folded serially in ascending cluster index
// out of the assigner-owned phiBuf (so the multi-worker fold reuses one
// K-slot buffer across iterations instead of allocating per call).
// Because a chunk is exactly one cluster, the fold IS the serial Σ_i φ_i
// loop — same additions, same order, bit-identical for every worker count —
// and the chunk bodies write only their own cluster's state (st.dims,
// st.phi, st.next, dimsOut[i]), so the parallel writes stay disjoint. K = 1 hits
// MapChunksIntoCtx's single-chunk short-circuit and runs inline with no fold call.
// The dims slices installed on the states alias the assigner's per-cluster
// buffers, which the caller's cluster states own until the next evaluate
// call.
func (a *assigner) evaluate(ctx context.Context, ds *dataset.Dataset, clusters []*state, thr *thresholds) (float64, error) {
	a.ds, a.clusters, a.thr = ds, clusters, thr
	total, err := engine.MapChunksIntoCtx(ctx, len(clusters), 1, a.scratch.Slots(), a.phiBuf, a.evalFn, addPhi)
	a.ds, a.clusters, a.thr = nil, nil, nil
	return total, err
}
