package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/grid"
	"repro/internal/stats"
)

// seedGroup holds a set of seeds expected to come from one real cluster and
// the relevant dimensions estimated from them (§4.2). Private groups belong
// to a cluster with input knowledge; public groups are shared by the rest.
type seedGroup struct {
	seeds []int
	dims  []int
	class int // class of a private group; −1 for public groups
	inUse bool

	// medianOnDims[t] is the median of the seeds' projections on dims[t].
	// The max-min mechanism measures distances against this representative
	// instead of every seed, keeping initialization O(n) in the dataset
	// size (seed groups grow with n, so per-seed distances would be O(n²)).
	medianOnDims []float64
}

// computeMedian fills medianOnDims from the current seeds.
func (g *seedGroup) computeMedian(ds *dataset.Dataset) {
	g.medianOnDims = make([]float64, len(g.dims))
	buf := make([]float64, len(g.seeds))
	for t, j := range g.dims {
		g.medianOnDims[t] = stats.MedianInPlace(ds.GatherColumn(g.seeds, j, buf))
	}
}

// drawMedoid returns a random seed from the group.
func (g *seedGroup) drawMedoid(rng *stats.RNG) int {
	return g.seeds[rng.Intn(len(g.seeds))]
}

// initializer builds the seed groups in the knowledge-driven order of §4.2.
type initializer struct {
	ds   *dataset.Dataset
	opts Options
	thr  *thresholds
	rng  *stats.RNG

	excluded  []bool // objects claimed by already-created groups
	nExcluded int
	groups    []*seedGroup // every group created so far (for max-min)

	// es backs every SelectDim / evaluateDims call of the initialization
	// path, so repeated refinement passes reuse one kernel scratch.
	es *evalScratch

	// hists holds each column's 1-D density histogram over all n objects,
	// built on the first densityCandidates call; nil where a column admits
	// none. They depend only on the column and GridBins, so every group of
	// the initialization shares them.
	hists []*stats.Histogram
}

// initialize returns the private seed groups keyed by class and the shared
// public groups.
func initialize(ds *dataset.Dataset, opts Options, thr *thresholds, rng *stats.RNG) (map[int]*seedGroup, []*seedGroup, error) {
	init := &initializer{
		ds:       ds,
		opts:     opts,
		thr:      thr,
		rng:      rng,
		excluded: make([]bool, ds.N()),
		es:       newEvalScratch(ds.D()),
	}

	private := make(map[int]*seedGroup)
	for _, c := range init.orderedClasses() {
		g, err := init.createPrivate(c)
		if err != nil {
			return nil, nil, fmt.Errorf("sspc: seed group for class %d: %w", c, err)
		}
		private[c] = g
		init.adopt(g)
	}

	numPublic := opts.PublicGroups
	if len(private) >= opts.K {
		// Every cluster has a private group; a couple of public groups are
		// still kept as replacement material for bad clusters.
		numPublic = 2
	}
	var public []*seedGroup
	for t := 0; t < numPublic; t++ {
		g, err := init.createPublic()
		if err != nil {
			// Running out of unexcluded objects is expected on small
			// datasets; stop with what we have.
			break
		}
		public = append(public, g)
		init.adopt(g)
	}
	if len(private) == 0 && len(public) == 0 {
		return nil, nil, fmt.Errorf("sspc: could not create any seed groups")
	}
	return private, public, nil
}

// orderedClasses returns the classes with knowledge in creation order:
// both kinds of inputs, objects only, dimensions only; within each category
// larger inputs first (§4.2).
func (init *initializer) orderedClasses() []int {
	kn := init.opts.Knowledge
	if kn.Empty() {
		return nil
	}
	type entry struct {
		class, category, size int
	}
	var entries []entry
	for _, c := range kn.Classes() {
		nObj := len(kn.ObjectsOfClass(c))
		nDim := len(kn.DimsOfClass(c))
		cat := 3
		switch {
		case nObj > 0 && nDim > 0:
			cat = 0
		case nObj > 0:
			cat = 1
		case nDim > 0:
			cat = 2
		}
		entries = append(entries, entry{c, cat, nObj + nDim})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].category != entries[j].category {
			return entries[i].category < entries[j].category
		}
		if entries[i].size != entries[j].size {
			return entries[i].size > entries[j].size
		}
		return entries[i].class < entries[j].class
	})
	out := make([]int, len(entries))
	for i, e := range entries {
		out[i] = e.class
	}
	if init.opts.Order == RandomOrder {
		init.rng.Shuffle(out)
	}
	return out
}

// createPrivate builds the seed group of a class with input knowledge,
// covering the three supervised cases of §4.2.1–4.2.3.
func (init *initializer) createPrivate(c int) (*seedGroup, error) {
	kn := init.opts.Knowledge
	io := kn.ObjectsOfClass(c)
	iv := kn.DimsOfClass(c)

	var cands []int
	var weights []float64
	var start []float64

	switch {
	case len(io) >= 2:
		// §4.2.1/§4.2.2: the labeled objects form a temporary cluster C'.
		cands, weights = privateCandidates(evaluateDims(init.ds, io, init.thr, init.es), iv)
		start = init.ds.MedianVector(io)

	case len(io) == 1:
		// A single labeled object cannot form a temporary cluster (φ needs
		// a sample variance); use it as the hill-climbing start and fall
		// back to labeled dimensions or 1-D densities for candidates.
		start = append([]float64(nil), init.ds.Row(io[0])...)
		if len(iv) > 0 {
			cands = append(cands, iv...)
			weights = uniformWeights(len(iv))
		} else {
			cands, weights = init.densityCandidates(start)
		}

	default:
		// §4.2.3: labeled dimensions only. Grids are built from Iv with
		// uniform probabilities and the seeds come from the absolute peak.
		cands = append(cands, iv...)
		weights = uniformWeights(len(iv))
		start = nil
	}

	if len(cands) == 0 {
		// Degenerate knowledge (e.g. two labeled objects selecting no
		// dimension): treat like an unsupervised group anchored at the
		// labeled objects' median, using 1-D densities.
		if start == nil {
			start = init.ds.MedianVector(io)
		}
		cands, weights = init.densityCandidates(start)
	}

	seeds, err := init.buildSeedsPreferring(cands, weights, iv, start)
	if err != nil {
		return nil, err
	}
	seeds, dims := init.refine(seeds, iv)
	if len(dims) == 0 {
		dims = append([]int(nil), cands...)
		sort.Ints(dims)
	}
	return &seedGroup{seeds: seeds, dims: dims, class: c}, nil
}

// privateCandidates returns the grid-building candidates of a class whose
// labeled objects form a temporary cluster C' with per-dimension outcomes
// evals: SelectDim(C') weighted by φ_{i'j}, then every labeled dimension in
// iv that C' does not select.
func privateCandidates(evals []dimEval, iv []int) (cands []int, weights []float64) {
	maxPhi := 0.0
	for _, e := range evals {
		if e.selected && e.phi > maxPhi {
			maxPhi = e.phi
		}
	}
	for j, e := range evals {
		if e.selected && e.phi > 0 {
			cands = append(cands, j)
			weights = append(weights, e.phi)
		}
	}
	// Labeled dimensions join the candidate set even if the temporary
	// cluster does not select them. They get a competitive weight, so a
	// small or biased Io cannot drown them out. The weight never reads the
	// rejected dimension's φ_ij: that is ≤ 0 or −Inf, or NaN where a constant
	// column makes both s² + (µ − µ̃)² and ŝ² zero, and WeightedSample never
	// draws a NaN weight.
	inCands := make(map[int]bool, len(cands))
	for _, j := range cands {
		inCands[j] = true
	}
	for _, j := range iv {
		if !inCands[j] {
			cands = append(cands, j)
			weights = append(weights, math.Max(maxPhi, 1))
		}
	}
	return cands, weights
}

// createPublic builds a shared seed group using the max-min mechanism of
// §4.2.4.
func (init *initializer) createPublic() (*seedGroup, error) {
	startObj, err := init.maxMinObject()
	if err != nil {
		return nil, err
	}
	start := append([]float64(nil), init.ds.Row(startObj)...)
	cands, weights := init.densityCandidates(start)
	seeds, err := init.buildSeeds(cands, weights, start)
	if err != nil {
		return nil, err
	}
	seeds, dims := init.refine(seeds, nil)
	if len(dims) == 0 {
		// Keep the group usable: take the densest candidate dimensions.
		dims = topWeighted(cands, weights, init.opts.GridDims)
		sort.Ints(dims)
	}
	return &seedGroup{seeds: seeds, dims: dims, class: -1}, nil
}

// refine turns a raw peak-cell seed set into a representative seed group.
//
// SelectDim on a handful of peak-cell objects is noisy: with small n_i many
// irrelevant dimensions slip under ŝ²_ij by chance, and dimensions selected
// from an unrepresentative sample poison the assignment scores (every such
// dimension penalizes true members). The cure is to estimate dimensions
// from a sample of roughly cluster size: grow the seed set by gathering the
// objects that are close to the seeds' median along the strongest few
// dimensions (the top-φ ones, which are almost surely truly relevant), then
// rerun SelectDim on the grown set. False selections on a representative
// sample are harmless — they reflect genuine concentration of the cluster.
func (init *initializer) refine(seeds []int, iv []int) ([]int, []int) {
	ds, thr := init.ds, init.thr
	dims0 := selectDims(ds, seeds, thr, init.es)
	dims0 = unionSorted(dims0, iv)
	if len(dims0) == 0 {
		return seeds, nil
	}

	// Pass 1: rank the candidate dimensions by φ_ij on the raw seeds and
	// grow along the strongest c of them.
	phis := make([]float64, len(dims0))
	buf := make([]float64, len(seeds))
	for t, j := range dims0 {
		phis[t] = phiIJ(ds, seeds, j, thr, buf)
	}
	growDims := topWeighted(dims0, phis, init.opts.GridDims)
	grown := init.gather(seeds, growDims)
	if len(grown) < len(seeds) {
		grown = seeds
	}
	dims := selectDims(ds, grown, thr, init.es)
	dims = unionSorted(dims, iv)

	// Pass 2: with a representative sample the selected dimensions are
	// mostly true; regrowing over all of them separates members from
	// bystanders much more sharply.
	if len(dims) > 0 {
		regrown := init.gather(grown, dims)
		if len(regrown) >= len(seeds) {
			grown = regrown
			dims = unionSorted(selectDims(ds, grown, thr, init.es), iv)
		}
	}
	return grown, dims
}

// gather returns the objects whose average normalized squared distance to
// the members' median over dims is below 1 — the likely cluster members
// around the group.
func (init *initializer) gather(members []int, dims []int) []int {
	ds, thr := init.ds, init.thr
	if len(dims) == 0 || len(members) == 0 {
		return members
	}
	ni := maxInt(len(members), ds.N()/maxInt(init.opts.K, 1))
	med := make([]float64, len(dims))
	buf := make([]float64, len(members))
	for t, j := range dims {
		med[t] = stats.MedianInPlace(ds.GatherColumn(members, j, buf))
	}
	// The full-dataset scan reads whole rows (one storage dispatch per row,
	// never per element) against thresholds hoisted out of the point loop —
	// same divisors, same order, so the scores are bit-identical.
	sHat := make([]float64, len(dims))
	for t, j := range dims {
		sHat[t] = thr.value(j, ni)
	}
	var out []int
	for i := 0; i < ds.N(); i++ {
		row := ds.Row(i)
		score := 0.0
		for t, j := range dims {
			diff := row[j] - med[t]
			score += diff * diff / sHat[t]
		}
		if score/float64(len(dims)) < 1 {
			out = append(out, i)
		}
	}
	return out
}

// buildSeedsPreferring behaves like buildSeeds but, when labeled dimensions
// are present, builds half of the grids with the labeled dimensions taking
// priority — the synergy of the two input kinds the paper describes (§4.5):
// labeled dimensions pin down the subspace, labeled objects pin down the
// location.
func (init *initializer) buildSeedsPreferring(cands []int, weights []float64, iv []int, start []float64) ([]int, error) {
	if len(iv) == 0 {
		return init.buildSeeds(cands, weights, start)
	}
	boosted := append([]float64(nil), weights...)
	maxW := 0.0
	for _, w := range boosted {
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		maxW = 1
	}
	ivSet := make(map[int]bool, len(iv))
	for _, j := range iv {
		ivSet[j] = true
	}
	// Give labeled dimensions overwhelming weight in half the grids so
	// those grids are built (almost) purely from Iv.
	for t, j := range cands {
		if ivSet[j] {
			boosted[t] = maxW * float64(len(cands))
		}
	}
	half := init.opts.Grids / 2
	savedGrids := init.opts.Grids

	init.opts.Grids = savedGrids - half
	a, errA := init.buildSeeds(cands, weights, start)
	init.opts.Grids = half
	b, errB := init.buildSeeds(cands, boosted, start)
	init.opts.Grids = savedGrids

	switch {
	case errA != nil && errB != nil:
		return nil, errA
	case errA != nil:
		return b, nil
	case errB != nil:
		return a, nil
	case len(b) > len(a):
		return b, nil
	default:
		return a, nil
	}
}

// maxMinObject returns the unexcluded object whose minimum normalized
// subspace distance to all seeds of existing groups is maximal. With no
// existing groups it returns a random unexcluded object.
func (init *initializer) maxMinObject() (int, error) {
	var pool []int
	for i := 0; i < init.ds.N(); i++ {
		if !init.excluded[i] {
			pool = append(pool, i)
		}
	}
	if len(pool) == 0 {
		return 0, fmt.Errorf("all objects excluded")
	}
	if len(init.groups) == 0 {
		return pool[init.rng.Intn(len(pool))], nil
	}
	bestObj, bestDist := pool[0], -1.0
	for _, i := range pool {
		minDist := math.Inf(1)
		row := init.ds.Row(i)
		for _, g := range init.groups {
			if len(g.dims) == 0 || len(g.medianOnDims) != len(g.dims) {
				continue
			}
			d2 := 0.0
			for t, j := range g.dims {
				diff := row[j] - g.medianOnDims[t]
				d2 += diff * diff
			}
			d2 /= float64(len(g.dims))
			if d2 < minDist {
				minDist = d2
			}
		}
		if minDist > bestDist {
			bestDist = minDist
			bestObj = i
		}
	}
	return bestObj, nil
}

// densityCandidates weights every dimension by the object density around
// the start point on a 1-D histogram, minus the uniform baseline (§4.2.4).
func (init *initializer) densityCandidates(start []float64) ([]int, []float64) {
	d := init.ds.D()
	bins := init.opts.GridBins
	baseline := 1.0 / float64(bins)
	if init.hists == nil {
		init.hists = make([]*stats.Histogram, d)
		col := make([]float64, init.ds.N())
		for j := range init.hists {
			// The error (no bins or no values) is the nil histogram that
			// drops the column below.
			init.hists[j], _ = stats.NewHistogram(init.ds.ColInto(j, col), bins)
		}
	}
	cands := make([]int, 0, d)
	weights := make([]float64, 0, d)
	for j, h := range init.hists {
		if h == nil {
			continue
		}
		w := h.Density(start[j]) - baseline
		if w <= 0 {
			w = baseline * 0.01 // keep a tiny chance for every dimension
		}
		cands = append(cands, j)
		weights = append(weights, w)
	}
	return cands, weights
}

// buildSeeds builds g grids over weighted candidate dimensions and returns
// the objects of the densest (hill-climbed) peak cell across all grids.
// start is the hill-climbing anchor (full d-vector); nil means the absolute
// peak of each grid is used.
func (init *initializer) buildSeeds(cands []int, weights []float64, start []float64) ([]int, error) {
	include := init.includeList()
	var bestSeeds []int
	bestDensity := -1

	c := init.opts.GridDims
	if c > len(cands) {
		c = len(cands)
	}
	if c == 0 {
		return nil, fmt.Errorf("no candidate dimensions")
	}
	numGrids := init.opts.Grids
	if numGrids > 1 && c == len(cands) {
		// Every grid would use the same dimensions; one suffices.
		numGrids = 1
	}
	for t := 0; t < numGrids; t++ {
		picked := init.rng.WeightedSample(weights, c)
		dims := make([]int, len(picked))
		for u, idx := range picked {
			dims[u] = cands[idx]
		}
		g, err := grid.Build(init.ds, dims, init.opts.GridBins, include)
		if err != nil {
			continue
		}
		var peak int64
		if start != nil {
			peak = g.HillClimb(g.CellOfPoint(start))
		} else {
			peak, _ = g.Peak()
		}
		if cnt := g.Count(peak); cnt > bestDensity {
			bestDensity = cnt
			bestSeeds = append(bestSeeds[:0], g.Objects(peak)...)
		}
	}
	if len(bestSeeds) == 0 {
		return nil, fmt.Errorf("no grid produced a non-empty peak")
	}
	return bestSeeds, nil
}

// includeList returns the unexcluded objects, or nil when nothing is
// excluded (grid.Build then folds everything without an allocation).
func (init *initializer) includeList() []int {
	if init.nExcluded == 0 {
		return nil
	}
	out := make([]int, 0, init.ds.N()-init.nExcluded)
	for i := 0; i < init.ds.N(); i++ {
		if !init.excluded[i] {
			out = append(out, i)
		}
	}
	return out
}

// adopt registers a created group and excludes the objects that are close
// to it in its subspace, so later groups do not rediscover the same cluster
// (§4.2). Exclusion stops once fewer than 10% of objects remain, to keep
// grids buildable.
func (init *initializer) adopt(g *seedGroup) {
	init.groups = append(init.groups, g)
	if len(g.dims) == 0 || len(g.seeds) == 0 {
		return
	}
	g.computeMedian(init.ds)
	limit := init.ds.N() / 10
	med := g.medianOnDims
	ni := len(g.seeds)
	sHat := make([]float64, len(g.dims))
	for t, j := range g.dims {
		sHat[t] = init.thr.value(j, ni)
	}
	for i := 0; i < init.ds.N(); i++ {
		if init.excluded[i] {
			continue
		}
		if init.ds.N()-init.nExcluded <= limit {
			return
		}
		row := init.ds.Row(i)
		score := 0.0
		for t, j := range g.dims {
			diff := row[j] - med[t]
			score += diff * diff / sHat[t]
		}
		if score/float64(len(g.dims)) < 1 {
			init.excluded[i] = true
			init.nExcluded++
		}
	}
}

func uniformWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// unionSorted merges two ascending-or-unsorted int slices into a sorted,
// deduplicated slice.
func unionSorted(a, b []int) []int {
	seen := make(map[int]bool, len(a)+len(b))
	out := make([]int, 0, len(a)+len(b))
	for _, s := range [][]int{a, b} {
		for _, v := range s {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Ints(out)
	return out
}

// topWeighted returns the k candidates with the largest weights.
func topWeighted(cands []int, weights []float64, k int) []int {
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return weights[idx[a]] > weights[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[idx[i]]
	}
	return out
}
