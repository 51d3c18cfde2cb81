package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// state is the mutable per-cluster state of the main loop.
type state struct {
	dims     []int // selected dimensions V_i
	members  []int
	phi      float64
	prevSize int        // n_i of the previous iteration (for scheme p)
	group    *seedGroup // the seed group currently backing this cluster

	// rep is the representative Step 3 scores against and detectBadCluster
	// compares. next holds the medians Step 4 took over this iteration's
	// members; it becomes rep when the iteration improves φ.
	rep, next representative
}

// RunContext executes SSPC (Listing 2 of the paper) on the dataset and
// returns the best clustering found across Options.Restarts independent
// restarts, run concurrently on up to Options.Workers goroutines through the
// restart engine; workers beyond the restart count parallelize the assignment
// step inside each restart. With Options.EarlyStop > 0 the restarts stream
// lazily and stop once φ has plateaued for that many consecutive restarts.
// The result is a pure function of (ds, opts): restart r always draws from
// engine.ChildSeed(opts.Seed, r), results and the early-stop decision are
// reduced in restart order, and ties on φ keep the lowest restart — Workers
// never changes the output.
//
// Cancellation is checked at every restart launch, every main-loop iteration,
// and every chunk boundary of the Step-3 assignment and Step-4 evaluation
// scans, so a canceled fit returns context.Cause(ctx) — never a partial
// result — within a bounded amount of work.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) (*cluster.Result, error) {
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	results, err := engine.Run(ctx, opts.Restarts, opts.Workers,
		opts.Seed, opts.EarlyStop, cluster.BetterResult,
		func(restart int, rng *stats.RNG, intra int) (*cluster.Result, error) {
			return runOnce(ctx, ds, opts, restart, rng, intra)
		})
	if err != nil {
		return nil, err
	}
	if len(results) < opts.Restarts {
		opts.Trace.emitEarlyStop(len(results), opts.Restarts)
	}
	return cluster.BestResult(results), nil
}

// runOnce executes one restart of the SSPC main loop with its own RNG,
// parallelizing the assignment and dimension re-selection steps across up
// to intra goroutines. Everything it touches is restart-local except the
// read-only dataset and the (internally synchronized) trace.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, restart int, rng *stats.RNG, intra int) (*cluster.Result, error) {
	thr := newThresholds(ds, opts)

	private, public, err := initialize(ds, opts, thr, rng)
	if err != nil {
		return nil, err
	}
	opts.Trace.emitInit(restart, private, public)

	n, d := ds.N(), ds.D()
	clusters := make([]*state, opts.K)
	for i := range clusters {
		st := &state{prevSize: maxInt(2, n/opts.K), rep: newRepresentative(d), next: newRepresentative(d)}
		if g, ok := private[i]; ok {
			st.group = g
		} else {
			st.group = drawPublicGroup(public, rng)
			if st.group == nil {
				// Not enough public groups: a degenerate group around a
				// random object, on a private group's dimensions.
				st.group = fallbackGroup(ds, private, rng)
			}
		}
		st.group.inUse = true
		medoid := st.group.drawMedoid(rng)
		st.rep.setVector(ds.Row(medoid))
		st.dims = append([]int(nil), st.group.dims...)
		clusters[i] = st
	}

	assign := make([]int, n)
	bestAssign := make([]int, n)
	bestDims := make([][]int, opts.K)
	bestPhi := make([]float64, opts.K)
	bestFitted := make([]cluster.FittedCluster, opts.K)
	haveFitted := false
	bestScore := math.Inf(-1)

	par := newAssigner(n, d, opts.K, intra)

	iterations := 0
	stall := 0
	for iterations < opts.MaxIterations && stall < opts.MaxStall {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		iterations++

		// Step 3: assign every object to the cluster whose φ_i it improves
		// most, with the representative's projection standing in for the
		// median. Objects improving no cluster go to the outlier list. The
		// scoring runs chunked across the intra-restart workers, with each
		// cluster's thresholds ŝ²_ij taken at its previous size.
		if err := par.assign(ctx, ds, clusters, thr, assign); err != nil {
			return nil, err
		}
		for _, st := range clusters {
			st.members = st.members[:0]
		}
		for x, c := range assign {
			if c != cluster.Outlier {
				clusters[c].members = append(clusters[c].members, x)
			}
		}

		// Step 4: redetermine the selected dimensions with the actual
		// medians (one worker per cluster) and compute the overall objective
		// score by ordered reduction over cluster indices.
		phiSum, err := par.evaluate(ctx, ds, clusters, thr)
		if err != nil {
			return nil, err
		}
		score := overallPhi(phiSum, n, d)

		// Step 5: record or restore the best clusters.
		improved := score > bestScore
		if improved {
			bestScore = score
			copy(bestAssign, assign)
			// The assigner's packed triples still hold the scoring state that
			// produced this iteration's assign (evaluate never touches them),
			// so snapshotting here keeps exactly the model that reproduces
			// bestAssign. Note Step 4 may have re-selected different dims than
			// the snapshot's: bestDims describes the clusters, bestFitted
			// describes the assignment rule.
			par.snapshotFitted(bestFitted)
			haveFitted = true
			for i, st := range clusters {
				bestDims[i] = append(bestDims[i][:0], st.dims...)
				bestPhi[i] = st.phi
			}
			stall = 0
		} else {
			stall++
			for i, st := range clusters {
				st.dims = append(st.dims[:0], bestDims[i]...)
				st.phi = bestPhi[i]
				st.members = st.members[:0]
			}
			for x, c := range bestAssign {
				if c != cluster.Outlier {
					clusters[c].members = append(clusters[c].members, x)
				}
			}
		}

		// Step 6: replace the representative of the bad cluster with a new
		// medoid; every other cluster's representative becomes its median
		// (or mean, under the ablation). A median representative takes its
		// coordinates lazily, on first read. After an improving iteration
		// the members are the ones Step 4 just evaluated, so the medians it
		// took carry over. After a restore, it keeps only what it already
		// knows about the same member list.
		bad := detectBadCluster(ds, clusters)
		opts.Trace.emitIteration(restart, iterations, score, bestScore, improved, clusters, bestAssign, bad)
		for i, st := range clusters {
			st.prevSize = maxInt(2, len(st.members))
			if i == bad {
				replaceWithNewMedoid(ds, st, private, public, i, rng)
				continue
			}
			if len(st.members) == 0 {
				continue
			}
			switch {
			case opts.Representative == MeanRepresentative:
				st.rep.setVector(ds.MeanVector(st.members))
			case improved:
				st.rep, st.next = st.next, st.rep
			default:
				st.rep.setMedian(st.members)
			}
		}
		for _, st := range clusters {
			st.members = st.members[:0]
		}
	}

	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         append([]int(nil), bestAssign...),
		Dims:                make([][]int, opts.K),
		Score:               bestScore,
		ScoreHigherIsBetter: true,
		Iterations:          iterations,
	}
	for i := range bestDims {
		res.Dims[i] = append([]int(nil), bestDims[i]...)
	}
	if haveFitted && fittedValid(bestFitted, d) {
		res.Fitted = bestFitted
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("sspc: internal result invalid: %w", err)
	}
	return res, nil
}

// fittedValid reports whether every snapshot cluster passes
// cluster.FittedCluster.Validate. A degenerate run (e.g. seed-group dims on a
// zero-variance column giving ŝ² = 0 before the first re-selection) simply
// drops Fitted from its result instead of failing: the clustering is still
// valid, it just is not servable.
func fittedValid(fitted []cluster.FittedCluster, d int) bool {
	for i := range fitted {
		if fitted[i].Validate(d) != nil {
			return false
		}
	}
	return true
}

// detectBadCluster implements §4.3: the primary signal is a very low φ_i
// (losers of two clusters competing for one real cluster, or empty
// clusters); a pair of near-duplicate clusters marks its lower-φ member bad.
func detectBadCluster(ds *dataset.Dataset, clusters []*state) int {
	// Near-duplicate check: large dimension overlap and close
	// representatives in the shared subspace.
	for i := 0; i < len(clusters); i++ {
		for j := i + 1; j < len(clusters); j++ {
			a, b := clusters[i], clusters[j]
			if len(a.dims) == 0 || len(b.dims) == 0 {
				continue
			}
			shared := intersectSorted(a.dims, b.dims)
			if len(shared)*2 < len(a.dims)+len(b.dims) {
				continue
			}
			// Representatives within one global stddev per shared dim.
			close := true
			for _, dim := range shared {
				diff := a.rep.at(ds, dim) - b.rep.at(ds, dim)
				if diff*diff > ds.ColVariance(dim) {
					close = false
					break
				}
			}
			if close {
				if a.phi < b.phi {
					return i
				}
				return j
			}
		}
	}
	worst, arg := math.Inf(1), 0
	for i, st := range clusters {
		phi := st.phi
		if len(st.members) == 0 {
			phi = math.Inf(-1)
		}
		if phi < worst {
			worst = phi
			arg = i
		}
	}
	return arg
}

// replaceWithNewMedoid redraws the bad cluster's representative from its
// private seed group, or from an unused public group (resetting usage when
// exhausted).
func replaceWithNewMedoid(ds *dataset.Dataset, st *state, private map[int]*seedGroup, public []*seedGroup, idx int, rng *stats.RNG) {
	if g, ok := private[idx]; ok {
		medoid := g.drawMedoid(rng)
		st.rep.setVector(ds.Row(medoid))
		st.dims = append(st.dims[:0], g.dims...)
		return
	}
	g := drawPublicGroup(public, rng)
	if g == nil {
		// All public groups in use: release the ones not currently backing
		// a cluster is not tracked here, so reset and redraw.
		for _, pg := range public {
			pg.inUse = false
		}
		if st.group != nil {
			st.group.inUse = true
		}
		g = drawPublicGroup(public, rng)
	}
	if g == nil {
		g = st.group // nothing else available: redraw within the group
	}
	if st.group != nil && st.group != g {
		st.group.inUse = false
	}
	g.inUse = true
	st.group = g
	medoid := g.drawMedoid(rng)
	st.rep.setVector(ds.Row(medoid))
	st.dims = append(st.dims[:0], g.dims...)
}

// drawPublicGroup picks a random unused public group, or nil.
func drawPublicGroup(public []*seedGroup, rng *stats.RNG) *seedGroup {
	var free []*seedGroup
	for _, g := range public {
		if !g.inUse {
			free = append(free, g)
		}
	}
	if len(free) == 0 {
		return nil
	}
	return free[rng.Intn(len(free))]
}

// fallbackGroup covers the corner where a cluster cannot get a public group
// (tiny datasets): a singleton group around a random object with the
// dimensions of the lowest-class private group, or one random dimension. The
// group is chosen by class, not by map order, so the fit stays a pure
// function of its inputs.
func fallbackGroup(ds *dataset.Dataset, private map[int]*seedGroup, rng *stats.RNG) *seedGroup {
	obj := rng.Intn(ds.N())
	var dims []int
	lowest := -1
	for class, g := range private {
		if lowest < 0 || class < lowest {
			lowest, dims = class, g.dims
		}
	}
	if len(dims) == 0 {
		dims = []int{rng.Intn(ds.D())}
	}
	return &seedGroup{seeds: []int{obj}, dims: append([]int(nil), dims...), class: -1}
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
