package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dataset"
	"repro/internal/engine"
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

// drawMedoid returns a random seed from the group.
func (g *seedGroup) drawMedoid(rng *stats.RNG) int {
	return g.seeds[rng.Intn(len(g.seeds))]
}

// initializer builds the seed groups in the knowledge-driven order of §4.2.
//
// Its three large loops run on the restart's worker slots through
// engine.ParallelChunksCtx, each with a fixed fold order, so the groups are
// the same bits for every worker count: the density histograms split by
// column range, the SelectDim kernel splits by column range, and the grids
// of one seed group split by grid and fold their peaks in grid order. Every
// chunk passes the engine's gate, so a canceled context or an armed fault
// stops initialization with its error. With one slot each loop is a single
// inline chunk. gather, adopt and maxMinObject run serially.
type initializer struct {
	ctx  context.Context
	ds   *dataset.Dataset
	opts Options
	thr  *thresholds
	rng  *stats.RNG

	excluded  []bool // objects claimed by already-created groups
	nExcluded int
	groups    []*seedGroup // every group created so far (for max-min)

	// scratch holds one kernel scratch per worker slot. A chunk touches
	// only its own slot's accumulators and gather buffer, and writes only
	// its own columns of evals, the outcomes of the latest evaluation.
	scratch []*evalScratch
	evals   []dimEval

	// hists holds each column's 1-D density histogram over all n objects,
	// built on the first densityCandidates call; nil where a column admits
	// none. They depend only on the column and gridBins, so every group of
	// the initialization shares them.
	hists []*stats.Histogram
}

// newInitializer returns an initializer whose chunked loops run on
// len(scratch) worker slots (at least one) and stop once ctx is done.
func newInitializer(ctx context.Context, ds *dataset.Dataset, opts Options, thr *thresholds, rng *stats.RNG, scratch []*evalScratch) *initializer {
	return &initializer{
		ctx:      ctx,
		ds:       ds,
		opts:     opts,
		thr:      thr,
		rng:      rng,
		excluded: make([]bool, ds.N()),
		scratch:  scratch,
		evals:    make([]dimEval, ds.D()),
	}
}

// initialize returns the private seed groups keyed by class and the shared
// public groups. Its chunked loops run on one slot per scratch; a chunk gate
// that trips (canceled ctx, armed fault) ends it with that error.
func initialize(ctx context.Context, ds *dataset.Dataset, opts Options, thr *thresholds, rng *stats.RNG, scratch []*evalScratch) (map[int]*seedGroup, []*seedGroup, error) {
	init := newInitializer(ctx, ds, opts, thr, rng, scratch)

	private := make(map[int]*seedGroup)
	for _, c := range init.orderedClasses() {
		g, err := init.createPrivate(c)
		if err != nil {
			return nil, nil, fmt.Errorf("sspc: seed group for class %d: %w", c, err)
		}
		private[c] = g
		init.adopt(g)
	}

	// Clusters without knowledge share max(2K, 10) public groups.
	numPublic := max(2*opts.K, 10)
	if len(private) >= opts.K {
		// Every cluster has a private group; a couple of public groups are
		// still kept as replacement material for bad clusters.
		numPublic = 2
	}
	var public []*seedGroup
	for t := 0; t < numPublic; t++ {
		g, err := init.createPublic()
		if err != nil {
			return nil, nil, fmt.Errorf("sspc: public seed group %d: %w", t, err)
		}
		if g == nil {
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

// chunks runs fn over [0, total) on the worker slots through
// engine.ParallelChunksCtx: engine-sized chunks over several slots, one
// inline chunk on a single slot. fn receives its slot index.
func (init *initializer) chunks(total int, fn func(slot, lo, hi int)) error {
	size := 0
	if len(init.scratch) == 1 {
		size = total
	}
	return engine.ParallelChunksCtx(init.ctx, total, size, len(init.scratch), fn)
}

// evaluate runs the columnar kernel on members over every dimension, split
// into column ranges across the worker slots. Each chunk accumulates and
// takes its medians on its own slot's scratch and writes only its own
// columns, so the outcomes are evaluateDims' for every split. The result
// aliases init.evals and is valid until the next evaluation.
func (init *initializer) evaluate(members []int) ([]dimEval, error) {
	err := init.chunks(init.ds.D(), func(slot, lo, hi int) {
		init.scratch[slot].evaluateRange(init.ds, members, init.thr, lo, hi, init.evals)
	})
	return init.evals, err
}

// selectDims runs Procedure SelectDim on members through evaluate.
func (init *initializer) selectDims(members []int) ([]int, error) {
	evals, err := init.evaluate(members)
	if err != nil {
		return nil, err
	}
	return selectedDims(evals), nil
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
	var start *representative // nil: each grid's absolute peak
	var err error

	switch {
	case len(io) >= 2:
		// §4.2.1/§4.2.2: the labeled objects form a temporary cluster C'.
		// The start is their median. A grid reads it only on the
		// dimensions it draws, so each coordinate is taken on first read.
		evals, err := init.evaluate(io)
		if err != nil {
			return nil, err
		}
		cands, weights = privateCandidates(evals, iv)
		start = init.medianStart(io)

	case len(io) == 1:
		// A single labeled object cannot form a temporary cluster (φ needs
		// a sample variance); use it as the hill-climbing start and fall
		// back to labeled dimensions or 1-D densities for candidates.
		start = init.rowStart(io[0])
		if len(iv) > 0 {
			cands = append(cands, iv...)
			weights = uniformWeights(len(iv))
		} else if cands, weights, err = init.densityCandidates(start.vector(init.ds)); err != nil {
			return nil, err
		}

	default:
		// §4.2.3: labeled dimensions only. Grids are built from Iv with
		// uniform probabilities and the seeds come from the absolute peak.
		cands = append(cands, iv...)
		weights = uniformWeights(len(iv))
	}

	if len(cands) == 0 {
		// Degenerate knowledge (e.g. two labeled objects selecting no
		// dimension): treat like an unsupervised group anchored at the
		// labeled objects' median, using 1-D densities.
		if start == nil {
			start = init.medianStart(io)
		}
		if cands, weights, err = init.densityCandidates(start.vector(init.ds)); err != nil {
			return nil, err
		}
	}

	seeds, err := init.buildSeeds(cands, weights, boostedWeights(cands, weights, iv), start)
	if err != nil {
		return nil, err
	}
	if seeds == nil {
		return nil, errors.New("no grid produced a non-empty peak")
	}
	seeds, dims, err := init.refine(seeds, iv)
	if err != nil {
		return nil, err
	}
	if len(dims) == 0 {
		dims = append([]int(nil), cands...)
		sort.Ints(dims)
	}
	return &seedGroup{seeds: seeds, dims: dims, class: c}, nil
}

// medianStart returns a hill-climbing start at the median of objs, whose
// coordinates are taken on first read.
func (init *initializer) medianStart(objs []int) *representative {
	r := newRepresentative(init.ds.D())
	r.setMedian(objs)
	return &r
}

// rowStart returns a hill-climbing start at object i.
func (init *initializer) rowStart(i int) *representative {
	r := newRepresentative(init.ds.D())
	r.setVector(init.ds.Row(i))
	return &r
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
	for _, j := range iv {
		if e := evals[j]; !(e.selected && e.phi > 0) {
			cands = append(cands, j)
			weights = append(weights, math.Max(maxPhi, 1))
		}
	}
	return cands, weights
}

// boostedWeights returns the grid-dimension weights of a private group's
// boosted grids: weights with every labeled dimension of iv (ascending)
// raised to maxW·|cands|, so those grids are built (almost) purely from Iv.
// It returns nil when iv is empty.
func boostedWeights(cands []int, weights []float64, iv []int) []float64 {
	if len(iv) == 0 {
		return nil
	}
	maxW := 0.0
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	if maxW <= 0 {
		maxW = 1
	}
	boosted := append([]float64(nil), weights...)
	for t, j := range cands {
		if _, labeled := slices.BinarySearch(iv, j); labeled {
			boosted[t] = maxW * float64(len(cands))
		}
	}
	return boosted
}

// createPublic builds a shared seed group using the max-min mechanism of
// §4.2.4. It returns nil, and no error, when the data supports no further
// group: every object is excluded, or no grid has an object in its peak.
func (init *initializer) createPublic() (*seedGroup, error) {
	startObj, err := init.maxMinObject()
	if err != nil {
		return nil, nil
	}
	start := init.rowStart(startObj)
	cands, weights, err := init.densityCandidates(start.vector(init.ds))
	if err != nil {
		return nil, err
	}
	seeds, err := init.buildSeeds(cands, weights, nil, start)
	if err != nil || seeds == nil {
		return nil, err
	}
	seeds, dims, err := init.refine(seeds, nil)
	if err != nil {
		return nil, err
	}
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
func (init *initializer) refine(seeds []int, iv []int) (grown, dims []int, err error) {
	if dims, err = init.selectDims(seeds); err != nil {
		return nil, nil, err
	}
	dims = unionSorted(dims, iv)

	// Round 1 grows along the strongest c candidate dimensions, ranked by
	// φ_ij on the raw seeds. Round 2 regrows over every dimension the grown
	// set selects: with a representative sample they are mostly true, and
	// all of them separate members from bystanders much more sharply. A round
	// whose growth is smaller than the raw seed set keeps the previous set
	// and its dimensions.
	phis := make([]float64, len(dims))
	buf := make([]float64, len(seeds))
	for t, j := range dims {
		phis[t] = phiIJ(init.ds, seeds, j, init.thr, buf)
	}
	growDims := topWeighted(dims, phis, init.opts.GridDims)
	grown = seeds
	for round := 0; round < 2 && len(dims) > 0; round++ {
		if next := init.gather(grown, growDims); len(next) >= len(seeds) {
			if dims, err = init.selectDims(next); err != nil {
				return nil, nil, err
			}
			grown, dims = next, unionSorted(dims, iv)
		}
		growDims = dims
	}
	return grown, dims, nil
}

// gather returns the objects near the members' median over dims by the
// §4.2 membership rule, with the thresholds taken at the expected cluster
// size: the likely cluster members around the group.
func (init *initializer) gather(members []int, dims []int) []int {
	ds := init.ds
	if len(dims) == 0 || len(members) == 0 {
		return members
	}
	med := mediansOn(ds, members, dims)
	sHat := init.thr.values(dims, max(len(members), ds.N()/max(init.opts.K, 1)))
	var out []int
	for i := 0; i < ds.N(); i++ {
		if near(ds.Row(i), dims, med, sHat) {
			out = append(out, i)
		}
	}
	return out
}

// near is the §4.2 membership rule: row's average normalized squared
// distance to med over dims, under the thresholds sHat, is below 1. Each
// caller reads whole rows (one storage dispatch per row, never per element)
// against thresholds hoisted out of its row loop.
func near(row []float64, dims []int, med, sHat []float64) bool {
	score := 0.0
	for t, j := range dims {
		diff := row[j] - med[t]
		score += diff * diff / sHat[t]
	}
	return score/float64(len(dims)) < 1
}

// mediansOn returns the medians of the objects' projections on each of dims.
func mediansOn(ds *dataset.Dataset, objs, dims []int) []float64 {
	med := make([]float64, len(dims))
	buf := make([]float64, len(objs))
	for t, j := range dims {
		med[t] = stats.MedianInPlace(ds.GatherColumn(objs, j, buf))
	}
	return med
}

// maxMinObject returns the unexcluded object whose minimum normalized
// subspace distance to all seeds of existing groups is maximal. With no
// existing groups it returns a random unexcluded object.
func (init *initializer) maxMinObject() (int, error) {
	pool := init.unexcluded()
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
// The first call builds the histograms, split into column ranges across the
// worker slots.
func (init *initializer) densityCandidates(start []float64) ([]int, []float64, error) {
	d := init.ds.D()
	baseline := 1.0 / float64(gridBins)
	if init.hists == nil {
		hists := make([]*stats.Histogram, d)
		if err := init.chunks(d, func(_, lo, hi int) {
			columnHistograms(init.ds, lo, hi, hists[lo:hi])
		}); err != nil {
			return nil, nil, err
		}
		init.hists = hists
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
	return cands, weights, nil
}

// columnHistograms builds the gridBins-cell density histogram over all n
// objects of every column j in [lo, hi) into hists[j-lo], in one row-major
// pass. Each spans its column's cached [ColMin, ColMax]: the dataset's
// statistics scan the rows in index order from ±Inf with the same strict <
// and > as stats.Min and stats.Max, and the cell counts are integers, so
// each histogram equals one built over the gathered column with Min and Max
// bounds. A column without a finite value gets nil.
func columnHistograms(ds *dataset.Dataset, lo, hi int, hists []*stats.Histogram) {
	hists = hists[:hi-lo]
	// The range's histograms and their cells live in two arrays.
	hs := make([]stats.Histogram, len(hists))
	counts := make([]int, len(hists)*gridBins)
	for t := range hists {
		var err error
		hs[t], err = stats.NewHistogramOver(ds.ColMin(lo+t), ds.ColMax(lo+t), counts[t*gridBins:(t+1)*gridBins:(t+1)*gridBins])
		hists[t] = &hs[t]
		if err != nil {
			// No values: the nil histogram drops the column.
			hists[t] = nil
		}
	}
	for i := 0; i < ds.N(); i++ {
		for t, v := range ds.Row(i)[lo:hi] {
			if h := hists[t]; h != nil {
				h.Add(v)
			}
		}
	}
}

// buildSeeds builds grids over weighted candidate dimensions and returns
// the objects of the densest (hill-climbed) peak cell across all grids, or
// nil when no grid has an object in its peak. start is the hill-climbing
// anchor, read only on each grid's dimensions; nil means the absolute peak of
// each grid is used.
//
// A private group with labeled dimensions passes boosted weights, in which
// those dimensions take priority: Grids − Grids/2 grids draw their
// dimensions from weights, then Grids/2 from boosted. That is the synergy of
// the two input kinds the paper describes (§4.5): labeled dimensions pin
// down the subspace, labeled objects pin down the location. With nil
// boosted every grid draws from weights. Where every candidate fits in one
// grid, each of the two parts builds a single grid.
//
// All dimension sets are drawn first, in grid order. WeightedSample is the
// only draw (building a grid and finding its peak draw nothing), so the RNG
// stream is the one a grid-by-grid loop consumes. The start takes its
// coordinates on the drawn dimensions before the grids run, so the chunks
// only read it. The grids then build across the worker slots. Each chunk
// records every grid's peak count and keeps its own densest grid, the first
// in grid order on a tie. The fold takes the first grid in grid order with
// the largest count, the grid a grid-by-grid loop keeps with a strict >, so
// the same seeds win for every split, and a boosted grid wins only with a
// strictly larger peak than every weights grid. The seeds are the winning
// grid's peak objects, collected once after the fold.
func (init *initializer) buildSeeds(cands []int, weights, boosted []float64, start *representative) ([]int, error) {
	c := min(init.opts.GridDims, len(cands))
	if c == 0 {
		return nil, nil
	}
	dims := make([]int, 0, init.opts.Grids*c) // grid t builds over dims[t*c : (t+1)*c]
	draw := func(w []float64, grids int) {
		if grids > 1 && c == len(cands) {
			// Every grid would use the same dimensions; one suffices.
			grids = 1
		}
		for ; grids > 0; grids-- {
			for _, idx := range init.rng.WeightedSample(w, c) {
				dims = append(dims, cands[idx])
			}
		}
	}
	boostedGrids := 0
	if boosted != nil {
		boostedGrids = init.opts.Grids / 2
	}
	draw(weights, init.opts.Grids-boostedGrids)
	draw(boosted, boostedGrids)
	numGrids := len(dims) / c
	var point []float64
	if start != nil {
		point = start.on(init.ds, dims)
	}
	var include []int // nil: grid.Build folds every object without an allocation
	if init.nExcluded > 0 {
		include = init.unexcluded()
	}

	// peaks[t] is grid t's peak count, −1 where the grid could not be
	// built; grid is set only on the densest grid of each chunk.
	type gridPeak struct {
		count int
		cell  int64
		grid  *grid.Grid
	}
	peaks := make([]gridPeak, numGrids)
	err := init.chunks(numGrids, func(_, lo, hi int) {
		best := -1
		var densest *grid.Grid
		for t := lo; t < hi; t++ {
			peaks[t].count = -1
			g, err := grid.Build(init.ds, dims[t*c:(t+1)*c], gridBins, include)
			if err != nil {
				continue
			}
			if point != nil {
				peaks[t].cell = g.HillClimb(g.CellOfPoint(point))
			} else {
				peaks[t].cell, _ = g.Peak()
			}
			peaks[t].count = g.Count(peaks[t].cell)
			if best < 0 || peaks[t].count > peaks[best].count {
				best, densest = t, g
			}
		}
		if best >= 0 {
			peaks[best].grid = densest
		}
	})
	if err != nil {
		return nil, err
	}
	best := -1
	for t := range peaks {
		if best < 0 || peaks[t].count > peaks[best].count {
			best = t
		}
	}
	if best < 0 || peaks[best].count <= 0 {
		return nil, nil
	}
	return peaks[best].grid.Objects(peaks[best].cell), nil
}

// unexcluded returns the objects no created group has claimed, in index
// order.
func (init *initializer) unexcluded() []int {
	out := make([]int, 0, init.ds.N()-init.nExcluded)
	for i, ex := range init.excluded {
		if !ex {
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
	ds := init.ds
	g.medianOnDims = mediansOn(ds, g.seeds, g.dims)
	sHat := init.thr.values(g.dims, len(g.seeds))
	limit := ds.N() / 10
	for i := 0; i < ds.N(); i++ {
		if init.excluded[i] {
			continue
		}
		if ds.N()-init.nExcluded <= limit {
			return
		}
		if near(ds.Row(i), g.dims, g.medianOnDims, sHat) {
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

// unionSorted returns the sorted, deduplicated union of a and b.
func unionSorted(a, b []int) []int {
	out := append(append(make([]int, 0, len(a)+len(b)), a...), b...)
	slices.Sort(out)
	return slices.Compact(out)
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
