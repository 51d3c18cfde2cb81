// Package copkmeans implements COP-KMeans (Wagstaff, Cardie, Rogers,
// Schroedl — ICML 2001), the constrained k-means algorithm the SSPC paper
// reviews as the archetypal semi-supervised clustering method ([18] in
// §2.2). Domain knowledge enters as instance-level constraints: must-links
// (two objects belong together) and cannot-links (they do not), enforced
// hard during every assignment step.
//
// It serves as the non-projected semi-supervised reference: constraints
// alone cannot fix full-space distances on extremely low-dimensional
// projected clusters, which is the gap SSPC fills.
//
// The randomized restarts (the initial random centers) run through the
// shared restart engine, and the hot loop — the per-component distance
// computation of the constrained assignment step — is chunked over the
// must-link component list, under the repository-wide determinism contract:
// results are a pure function of (dataset, constraints, options) for every
// Workers value. The feasibility-ordered placement itself stays
// serial: it is sequential by definition (each component's choice depends
// on where earlier components went).
package copkmeans

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Constraints holds instance-level must-link / cannot-link pairs.
type Constraints struct {
	MustLink   [][2]int
	CannotLink [][2]int
}

// FromKnowledge derives constraints from labeled objects: same class →
// must-link, different classes → cannot-link.
func FromKnowledge(kn *dataset.Knowledge) *Constraints {
	c := &Constraints{}
	if kn == nil {
		return c
	}
	var objs []int
	for obj := range kn.ObjectLabels {
		objs = append(objs, obj)
	}
	sort.Ints(objs) // for determinism
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			if kn.ObjectLabels[objs[i]] == kn.ObjectLabels[objs[j]] {
				c.MustLink = append(c.MustLink, [2]int{objs[i], objs[j]})
			} else {
				c.CannotLink = append(c.CannotLink, [2]int{objs[i], objs[j]})
			}
		}
	}
	return c
}

// Options configures COP-KMeans.
type Options struct {
	K             int
	MaxIterations int
	Seed          int64

	// Restarts is the number of independent randomized restarts (fresh
	// random initial centers); the result with the lowest cost is returned
	// (ties keep the lowest restart index). <= 0 means 1. Restart r derives
	// its RNG from engine.ChildSeed(Seed, r), so restart 0 reproduces the
	// historical single-run output. A restart whose constraints prove
	// infeasible fails the whole run, as any single run would.
	Restarts int

	// Workers bounds the total worker budget: restarts run concurrently on
	// up to this many goroutines, and workers left over parallelize the
	// chunked per-component distance pass inside each restart. <= 0 means
	// runtime.GOMAXPROCS(0). The worker count never changes the result.
	Workers int

	// EarlyStop, when > 0, streams the restarts: they launch lazily and the
	// run stops once the best cost has not improved for EarlyStop
	// consecutive restarts (judged in restart-index order), with Restarts as
	// the hard cap. 0 runs the fixed best-of-Restarts protocol.
	EarlyStop int
}

// DefaultOptions returns a standard configuration.
func DefaultOptions(k int) Options { return Options{K: k, MaxIterations: 100} }

// ErrInfeasible is returned when no constraint-respecting assignment
// exists for some object.
var ErrInfeasible = errors.New("copkmeans: constraints infeasible")

// prep is the constraint structure shared read-only by every restart: the
// must-link components (roots ascending, each member list ascending) and the
// cannot-link set keyed by ordered root pairs.
type prep struct {
	root    []int   // object → component root
	roots   []int   // component roots, ascending
	members [][]int // members[t] = objects of component roots[t], ascending
	cannot  map[[2]int]bool
}

// prepare builds the transitive closure of the must-links and validates the
// constraints against the dataset shape.
func prepare(n int, cons *Constraints) (*prep, error) {
	for _, p := range append(append([][2]int{}, cons.MustLink...), cons.CannotLink...) {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return nil, fmt.Errorf("copkmeans: constraint pair %v out of range", p)
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, p := range cons.MustLink {
		parent[find(p[0])] = find(p[1])
	}
	// Cannot-link between two objects of the same must-component is
	// immediately infeasible.
	cannot := make(map[[2]int]bool, len(cons.CannotLink))
	for _, p := range cons.CannotLink {
		a, b := find(p[0]), find(p[1])
		if a == b {
			return nil, fmt.Errorf("%w: cannot-link %v within a must-link component", ErrInfeasible, p)
		}
		if a > b {
			a, b = b, a
		}
		cannot[[2]int{a, b}] = true
	}
	p := &prep{root: make([]int, n), cannot: cannot}
	byRoot := map[int][]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		p.root[i] = r
		byRoot[r] = append(byRoot[r], i)
	}
	p.roots = make([]int, 0, len(byRoot))
	for r := range byRoot {
		p.roots = append(p.roots, r)
	}
	sort.Ints(p.roots)
	p.members = make([][]int, len(p.roots))
	compIdx := make(map[int]int, len(p.roots))
	for t, r := range p.roots {
		p.members[t] = byRoot[r]
		compIdx[r] = t
	}
	// Re-point root[] at the component index so restarts index slices, not
	// maps.
	for i := 0; i < n; i++ {
		p.root[i] = compIdx[p.root[i]]
	}
	return p, nil
}

// RunContext executes COP-KMeans with full-space Euclidean distance.
//
// Cancellation is checked at every restart launch, every k-means iteration,
// and every chunk boundary of the component distance pass, so a canceled run
// returns context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, cons *Constraints, opts Options) (*cluster.Result, error) {
	if ds == nil {
		return nil, errors.New("copkmeans: nil dataset")
	}
	n := ds.N()
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("copkmeans: K = %d out of range", opts.K)
	}
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	if cons == nil {
		cons = &Constraints{}
	}
	pre, err := prepare(n, cons)
	if err != nil {
		return nil, err
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	results, err := engine.Run(ctx, restarts, opts.Workers, opts.Seed,
		opts.EarlyStop, cluster.BetterResult,
		func(_ int, rng *stats.RNG, intra int) (*cluster.Result, error) {
			return runOnce(ctx, ds, pre, opts, rng, intra)
		})
	if err != nil {
		return nil, err
	}
	return cluster.BestResult(results), nil
}

// runOnce is one restart: random initial centers, then alternate the
// constrained assignment (assignComponents) with the serial center update
// until the centers stop moving.
func runOnce(ctx context.Context, ds *dataset.Dataset, pre *prep, opts Options, rng *stats.RNG, workers int) (*cluster.Result, error) {
	n, d := ds.N(), ds.D()
	centers := make([][]float64, opts.K)
	for c, idx := range rng.Sample(n, opts.K) {
		centers[c] = append([]float64(nil), ds.Row(idx)...)
	}

	assign := make([]int, n)
	nc := len(pre.roots)
	compAssign := make([]int, nc)
	dists := make([]float64, nc*opts.K)
	var cost float64
	iterations := 0

	for iter := 0; iter < opts.MaxIterations; iter++ {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		iterations++
		var err error
		cost, err = assignComponents(ctx, ds, pre, centers, dists, compAssign, workers)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			assign[i] = compAssign[pre.root[i]]
		}

		// Recompute centers; empty clusters keep their previous center.
		counts := make([]int, opts.K)
		sums := make([][]float64, opts.K)
		for c := range sums {
			sums[c] = make([]float64, d)
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			row := ds.Row(i)
			for j := 0; j < d; j++ {
				sums[c][j] += row[j]
			}
		}
		moved := false
		for c := 0; c < opts.K; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := 0; j < d; j++ {
				v := sums[c][j] / float64(counts[c])
				if v != centers[c][j] {
					moved = true
				}
				centers[c][j] = v
			}
		}
		if !moved {
			break
		}
	}

	res := &cluster.Result{
		K:                   opts.K,
		Assignments:         assign,
		Score:               cost,
		ScoreHigherIsBetter: false,
		Iterations:          iterations,
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("copkmeans: internal result invalid: %w", err)
	}
	return res, nil
}

// assignComponents is one constrained assignment step, writing each
// must-link component's cluster into compAssign and returning the cost. The
// distance pass fills dists[t*k+c] with component t's squared distance to
// center c, chunked over the components with each member sum in ascending
// member order. The placement is serial by nature — feasibility depends on
// where earlier components went: components in ascending root order each
// take their nearest feasible center, so the cost accumulates in the same
// order for every workers value.
func assignComponents(ctx context.Context, ds *dataset.Dataset, pre *prep, centers [][]float64, dists []float64, compAssign []int, workers int) (float64, error) {
	k := len(centers)
	if err := engine.ParallelChunksCtx(ctx, len(pre.roots), 0, workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			members := pre.members[t]
			for c := 0; c < k; c++ {
				total := 0.0
				for _, i := range members {
					total += distSq(ds.Row(i), centers[c])
				}
				dists[t*k+c] = total
			}
		}
	}); err != nil {
		return 0, err
	}
	for t := range compAssign {
		compAssign[t] = -1
	}
	cost := 0.0
	cands := make([]struct {
		c    int
		dist float64
	}, k)
	for t := range compAssign {
		for c := 0; c < k; c++ {
			cands[c].c, cands[c].dist = c, dists[t*k+c]
		}
		// Sort candidates by distance (stable: ties keep center order).
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && cands[j].dist < cands[j-1].dist; j-- {
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		for _, cd := range cands {
			if feasible(t, cd.c, pre, compAssign) {
				compAssign[t] = cd.c
				cost += cd.dist
				break
			}
		}
		if compAssign[t] < 0 {
			return 0, fmt.Errorf("%w: component %d has no feasible cluster", ErrInfeasible, pre.roots[t])
		}
	}
	return cost, nil
}

// feasible checks whether placing component t in cluster c violates any
// cannot-link against already-placed components.
func feasible(t, c int, pre *prep, compAssign []int) bool {
	for o, oc := range compAssign {
		if oc != c || o == t {
			continue
		}
		a, b := pre.roots[t], pre.roots[o]
		if a > b {
			a, b = b, a
		}
		if pre.cannot[[2]int{a, b}] {
			return false
		}
	}
	return true
}

// AssignBench exposes one constrained assignment step (assignComponents,
// the fit's own code) for benchmarking; see cmd/bench and
// BenchmarkConstrainedAssignChunked.
type AssignBench struct {
	ds      *dataset.Dataset
	pre     *prep
	centers [][]float64
	dists   []float64
	comp    []int
	workers int
}

// NewAssignBench prepares a benchmark harness over ds with the given
// constraints: centers are the deterministic seed-0 sample, so every call
// measures the same work.
func NewAssignBench(ds *dataset.Dataset, cons *Constraints, k, workers int) (*AssignBench, error) {
	if ds == nil {
		return nil, errors.New("copkmeans: nil dataset")
	}
	if cons == nil {
		cons = &Constraints{}
	}
	pre, err := prepare(ds.N(), cons)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(0)
	centers := make([][]float64, k)
	for c, idx := range rng.Sample(ds.N(), k) {
		centers[c] = append([]float64(nil), ds.Row(idx)...)
	}
	return &AssignBench{
		ds: ds, pre: pre, centers: centers,
		dists:   make([]float64, len(pre.roots)*k),
		comp:    make([]int, len(pre.roots)),
		workers: engine.DefaultWorkers(workers),
	}, nil
}

// Assign runs one constrained assignment step under ctx and returns its
// cost; a canceled ctx or an injected chunk fault returns the error instead.
func (b *AssignBench) Assign(ctx context.Context) (float64, error) {
	return assignComponents(ctx, b.ds, b.pre, b.centers, b.dists, b.comp, b.workers)
}

func distSq(a, b []float64) float64 {
	s := 0.0
	for j := range a {
		diff := a[j] - b[j]
		s += diff * diff
	}
	return s
}
