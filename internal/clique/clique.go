// Package clique implements CLIQUE (Agrawal, Gehrke, Gunopulos, Raghavan —
// SIGMOD 1998), the grid-based subspace clustering algorithm the SSPC paper
// cites as the origin of the related subspace-clustering problem ([3] in
// §2.1). CLIQUE partitions every dimension into ξ intervals, finds dense
// units bottom-up with an apriori join (a k-dimensional unit can only be
// dense if all its (k−1)-dimensional projections are), and reports the
// connected components of dense units in each subspace as clusters.
//
// Unlike projected clustering, subspace clustering allows overlapping
// clusters in different subspaces; Run flattens the result into the
// repository's shared disjoint-partition form by greedily assigning each
// object to the highest-dimensional cluster that covers it.
//
// CLIQUE draws no random numbers — the grid search is fully deterministic —
// so it runs once, with no seed and no restarts. That one run still goes
// through the shared restart engine, so launch cancellation, fault injection
// and panic containment behave as for every other algorithm, and the whole
// worker budget parallelizes the per-object cell scan and the per-dimension
// density scan.
package clique

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

// Options configures CLIQUE.
type Options struct {
	// Xi is the number of intervals per dimension (ξ).
	Xi int
	// Tau is the density threshold: a unit is dense when it holds at least
	// Tau·n objects (τ).
	Tau float64
	// MaxSubspaceDim caps the bottom-up search depth (0 = no cap). The
	// search is exponential in the worst case; real uses cap it.
	MaxSubspaceDim int
	// MaxClusters bounds how many clusters Run reports (0 = all).
	MaxClusters int

	// Workers bounds the goroutines of the per-object cell scan and the
	// per-dimension density scan. <= 0 means runtime.GOMAXPROCS(0). The
	// worker count never changes the result.
	Workers int
}

// DefaultOptions returns a workable configuration for normalized data.
func DefaultOptions() Options {
	return Options{Xi: 6, Tau: 0.05, MaxSubspaceDim: 4}
}

// unit is a dense unit: a subspace (sorted dims) and one interval index per
// dimension of the subspace.
type unit struct {
	dims  []int
	cells []int
}

func (u unit) key() string {
	return fmt.Sprint(u.dims, u.cells)
}

// subspaceKey identifies the subspace of a unit.
func (u unit) subspaceKey() string { return fmt.Sprint(u.dims) }

// Subspace is one discovered cluster: a set of dimensions and the objects
// of the connected dense units in it.
type Subspace struct {
	Dims    []int
	Objects []int
}

// RunContext executes CLIQUE and returns both the raw subspace clusters and
// the flattened disjoint partition.
//
// Cancellation is checked at launch, every chunk boundary of the cell and
// density scans, and every apriori level, so a canceled run returns
// context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) ([]Subspace, *cluster.Result, error) {
	if ds == nil {
		return nil, nil, errors.New("clique: nil dataset")
	}
	if opts.Xi < 2 {
		return nil, nil, fmt.Errorf("clique: Xi = %d (need >= 2)", opts.Xi)
	}
	if opts.Tau <= 0 || opts.Tau >= 1 {
		return nil, nil, fmt.Errorf("clique: Tau = %v out of (0,1)", opts.Tau)
	}

	type runOut struct {
		subs []Subspace
		res  *cluster.Result
	}
	outs, err := engine.Run(ctx, 1, opts.Workers, 0, 0, nil,
		func(_ int, _ *stats.RNG, intra int) (runOut, error) {
			subs, res, err := runOnce(ctx, ds, opts, intra)
			return runOut{subs, res}, err
		})
	if err != nil {
		return nil, nil, err
	}
	return outs[0].subs, outs[0].res, nil
}

// runOnce is the CLIQUE search with `workers` goroutines available for its
// chunked scans.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, workers int) ([]Subspace, *cluster.Result, error) {
	n, d := ds.N(), ds.D()
	minDense := int(opts.Tau * float64(n))
	if minDense < 1 {
		minDense = 1
	}

	// Precompute each object's interval index on every dimension — the
	// per-object cell scan, chunked over row ranges with disjoint writes
	// into each row's slice of the flat backing array.
	cells := make([]int, n*d)
	cellOf := make([][]int, n)
	width := make([]float64, d)
	lo := make([]float64, d)
	for j := 0; j < d; j++ {
		lo[j] = ds.ColMin(j)
		hi := ds.ColMax(j)
		if hi <= lo[j] {
			hi = lo[j] + 1
		}
		width[j] = (hi - lo[j]) / float64(opts.Xi)
	}
	if err := engine.ParallelChunksCtx(ctx, n, 0, workers, func(_, rlo, rhi int) {
		for i := rlo; i < rhi; i++ {
			cellOf[i] = cells[i*d : (i+1)*d : (i+1)*d]
			row := ds.Row(i)
			for j := 0; j < d; j++ {
				c := int((row[j] - lo[j]) / width[j])
				if c >= opts.Xi {
					c = opts.Xi - 1
				}
				if c < 0 {
					c = 0
				}
				cellOf[i][j] = c
			}
		}
	}); err != nil {
		return nil, nil, err
	}

	// Level 1: dense 1-D units — the per-unit density scan, chunked over
	// the dimension list (each dimension's member lists build serially in
	// ascending object order, writes disjoint per dimension), then folded
	// into the level maps in ascending dimension order.
	type dimUnits struct {
		units   []unit
		members [][]int
	}
	perDim := make([]dimUnits, d)
	if err := engine.ParallelChunksCtx(ctx, d, 0, workers, func(_, jlo, jhi int) {
		for j := jlo; j < jhi; j++ {
			counts := make([][]int, opts.Xi)
			for i := 0; i < n; i++ {
				c := cellOf[i][j]
				counts[c] = append(counts[c], i)
			}
			for c, members := range counts {
				if len(members) >= minDense {
					perDim[j].units = append(perDim[j].units, unit{dims: []int{j}, cells: []int{c}})
					perDim[j].members = append(perDim[j].members, members)
				}
			}
		}
	}); err != nil {
		return nil, nil, err
	}
	type denseLevel map[string][]int // unit key -> member objects
	level := denseLevel{}
	units := map[string]unit{}
	for j := 0; j < d; j++ {
		for t, u := range perDim[j].units {
			level[u.key()] = perDim[j].members[t]
			units[u.key()] = u
		}
	}

	var allDense []unit
	allMembers := map[string][]int{}
	for k, u := range units {
		allDense = append(allDense, u)
		allMembers[k] = level[k]
	}

	// Bottom-up apriori: join pairs of (k−1)-units sharing all but the
	// last dimension.
	maxDim := opts.MaxSubspaceDim
	if maxDim <= 0 || maxDim > d {
		maxDim = d
	}
	for dim := 2; dim <= maxDim && len(level) > 1; dim++ {
		if err := engine.Cause(ctx); err != nil {
			return nil, nil, err
		}
		next := denseLevel{}
		nextUnits := map[string]unit{}
		keys := make([]string, 0, len(level))
		for k := range level {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for a := 0; a < len(keys); a++ {
			ua := units[keys[a]]
			for b := a + 1; b < len(keys); b++ {
				ub := units[keys[b]]
				joined, ok := join(ua, ub)
				if !ok {
					continue
				}
				jk := joined.key()
				if _, seen := next[jk]; seen {
					continue
				}
				// Intersect member lists (both sorted by construction).
				members := intersectSortedInts(level[keys[a]], level[keys[b]])
				if len(members) >= minDense {
					next[jk] = members
					nextUnits[jk] = joined
				}
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
		units = nextUnits
		for k, u := range units {
			allDense = append(allDense, u)
			allMembers[k] = level[k]
		}
	}

	// Keep only maximal subspaces: drop a subspace if a strict superset
	// subspace also has dense units.
	subspaceDims := map[string][]int{}
	for _, u := range allDense {
		subspaceDims[u.subspaceKey()] = u.dims
	}
	maximal := map[string]bool{}
	for ka, dimsA := range subspaceDims {
		isMax := true
		for kb, dimsB := range subspaceDims {
			if ka != kb && strictSubset(dimsA, dimsB) {
				isMax = false
				break
			}
		}
		maximal[ka] = isMax
	}

	// Connected components of dense units within each maximal subspace.
	var subspaces []Subspace
	bySubspace := map[string][]unit{}
	for _, u := range allDense {
		if maximal[u.subspaceKey()] {
			bySubspace[u.subspaceKey()] = append(bySubspace[u.subspaceKey()], u)
		}
	}
	subKeys := make([]string, 0, len(bySubspace))
	for k := range bySubspace {
		subKeys = append(subKeys, k)
	}
	sort.Strings(subKeys)
	for _, sk := range subKeys {
		us := bySubspace[sk]
		sort.Slice(us, func(i, j int) bool { return us[i].key() < us[j].key() })
		parent := make([]int, len(us))
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
		for i := 0; i < len(us); i++ {
			for j := i + 1; j < len(us); j++ {
				if adjacent(us[i], us[j]) {
					parent[find(i)] = find(j)
				}
			}
		}
		comp := map[int][]int{}
		for i, u := range us {
			root := find(i)
			comp[root] = append(comp[root], allMembers[u.key()]...)
		}
		roots := make([]int, 0, len(comp))
		for r := range comp {
			roots = append(roots, r)
		}
		sort.Ints(roots)
		for _, r := range roots {
			members := dedupSorted(comp[r])
			subspaces = append(subspaces, Subspace{
				Dims:    append([]int(nil), us[0].dims...),
				Objects: members,
			})
		}
	}

	// Sort clusters: higher-dimensional subspaces first, then larger.
	sort.Slice(subspaces, func(i, j int) bool {
		if len(subspaces[i].Dims) != len(subspaces[j].Dims) {
			return len(subspaces[i].Dims) > len(subspaces[j].Dims)
		}
		if len(subspaces[i].Objects) != len(subspaces[j].Objects) {
			return len(subspaces[i].Objects) > len(subspaces[j].Objects)
		}
		return fmt.Sprint(subspaces[i].Dims) < fmt.Sprint(subspaces[j].Dims)
	})

	limit := opts.MaxClusters
	if limit <= 0 || limit > len(subspaces) {
		limit = len(subspaces)
	}
	picked := subspaces[:limit]

	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Outlier
	}
	dims := make([][]int, len(picked))
	for c, s := range picked {
		dims[c] = append([]int(nil), s.Dims...)
		for _, o := range s.Objects {
			if assign[o] == cluster.Outlier {
				assign[o] = c
			}
		}
	}
	k := len(picked)
	if k == 0 {
		k = 1
		dims = [][]int{{}}
	}
	res := &cluster.Result{
		K:                   k,
		Assignments:         assign,
		Dims:                dims,
		Score:               float64(len(allDense)),
		ScoreHigherIsBetter: true,
	}
	if err := res.Validate(n, d); err != nil {
		return nil, nil, fmt.Errorf("clique: internal result invalid: %w", err)
	}
	return subspaces, res, nil
}

// join combines two units of the same dimensionality that share all but the
// last (dimension, cell) pair, apriori-style.
func join(a, b unit) (unit, bool) {
	k := len(a.dims)
	if len(b.dims) != k {
		return unit{}, false
	}
	for t := 0; t < k-1; t++ {
		if a.dims[t] != b.dims[t] || a.cells[t] != b.cells[t] {
			return unit{}, false
		}
	}
	if a.dims[k-1] >= b.dims[k-1] {
		return unit{}, false // keep dims strictly increasing; avoids dups
	}
	dims := append(append([]int(nil), a.dims...), b.dims[k-1])
	cells := append(append([]int(nil), a.cells...), b.cells[k-1])
	return unit{dims: dims, cells: cells}, true
}

// adjacent reports whether two units of the same subspace share a face
// (identical cells except one axis differing by exactly 1).
func adjacent(a, b unit) bool {
	diff := 0
	for t := range a.cells {
		delta := a.cells[t] - b.cells[t]
		if delta < 0 {
			delta = -delta
		}
		if delta > 1 {
			return false
		}
		if delta == 1 {
			diff++
		}
	}
	return diff == 1
}

func strictSubset(a, b []int) bool {
	if len(a) >= len(b) {
		return false
	}
	set := make(map[int]bool, len(b))
	for _, v := range b {
		set[v] = true
	}
	for _, v := range a {
		if !set[v] {
			return false
		}
	}
	return true
}

func intersectSortedInts(a, b []int) []int {
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

func dedupSorted(s []int) []int {
	sort.Ints(s)
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
