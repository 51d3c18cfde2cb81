// Package grid implements the multi-dimensional histograms ("grids") that
// SSPC's initialization builds over candidate relevant dimensions, together
// with the localized hill-climbing search used to find the density peak near
// a starting point (paper §4.2.1). A grid over c building dimensions divides
// each dimension's range into a fixed number of equi-width cells; when all c
// dimensions are relevant to one cluster, one cell near the cluster center
// holds an unexpectedly large number of objects.
//
// A grid is a histogram: it keeps the occupied cells' counts, with the keys
// in ascending order, and no per-object state. SSPC reads only counts to
// find a peak, and asks for the objects of one cell of its best grid, which
// Objects finds by placing the included objects again. One build makes a
// fixed handful of allocations whatever the number of objects or cells.
package grid

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
)

// Grid is a multi-dimensional equi-width histogram over a subset of
// dimensions. keys[u] is the u-th occupied cell's encoded key, in ascending
// order, and counts[u] is how many objects it holds.
type Grid struct {
	dims  []int
	bins  int
	lo    []float64
	width []float64

	ds      *dataset.Dataset // Build's dataset
	include []int            // Build's include list, nil for every object
	keys    []int64
	counts  []int
}

// Build constructs a grid over the given dimensions with bins cells per
// dimension. If include is non-nil, only those objects are folded in — SSPC
// excludes likely members of already-initialized seed groups this way
// (§4.2). The grid keeps ds and include to answer Objects, so the caller
// must not modify them while the grid is in use. It returns an error when
// the cell space cannot be encoded or when no objects are included.
func Build(ds *dataset.Dataset, dims []int, bins int, include []int) (*Grid, error) {
	if len(dims) == 0 {
		return nil, errors.New("grid: no building dimensions")
	}
	if bins < 2 {
		return nil, errors.New("grid: need at least 2 bins per dimension")
	}
	space := math.Pow(float64(bins), float64(len(dims)))
	if space >= math.MaxInt64/2 {
		return nil, fmt.Errorf("grid: %d^%d cells cannot be encoded", bins, len(dims))
	}
	m := len(include)
	if include == nil {
		m = ds.N()
	}
	if m == 0 {
		return nil, errors.New("grid: no objects included")
	}
	g := &Grid{
		dims:    append([]int(nil), dims...),
		bins:    bins,
		lo:      make([]float64, len(dims)),
		width:   make([]float64, len(dims)),
		ds:      ds,
		include: include,
	}
	for t, j := range dims {
		lo, hi := ds.ColMin(j), ds.ColMax(j)
		if hi <= lo {
			hi = lo + 1
		}
		g.lo[t] = lo
		g.width[t] = (hi - lo) / float64(bins)
	}
	if cells := int64(space); denseFits(cells, m) {
		g.countDense(int(cells), m)
	} else {
		g.countSparse(m)
	}
	return g, nil
}

// object returns the t-th included object: include[t], or t itself when
// every object is included.
func object(include []int, t int) int {
	if include == nil {
		return t
	}
	return include[t]
}

// objectCell returns the cell of the t-th included object.
func (g *Grid) objectCell(t int) int64 {
	return g.CellOfPoint(g.ds.Row(object(g.include, t)))
}

// denseFits reports whether a cell space of the given size is counted
// through a dense per-cell array for m objects. The array costs O(cells)
// to clear and scan, the sort it replaces O(m log m); at the defaults (6
// bins, c=3) the space is 216 cells and always fits.
func denseFits(cells int64, m int) bool {
	return cells <= int64(max(1<<12, 8*m))
}

// countDense counts the m included objects into a dense array over the
// whole cell space, then keeps the occupied cells in ascending key order.
func (g *Grid) countDense(cells, m int) {
	dense := make([]int, cells)
	occupied := 0
	for t := 0; t < m; t++ {
		key := g.objectCell(t)
		if dense[key] == 0 {
			occupied++
		}
		dense[key]++
	}
	g.keys = make([]int64, 0, occupied)
	g.counts = make([]int, 0, occupied)
	for key, n := range dense {
		if n > 0 {
			g.keys = append(g.keys, int64(key))
			g.counts = append(g.counts, n)
		}
	}
}

// countSparse counts the runs of the m included objects' sorted cells, for
// cell spaces too large for a dense array.
func (g *Grid) countSparse(m int) {
	sorted := make([]int64, m)
	for t := range sorted {
		sorted[t] = g.objectCell(t)
	}
	slices.Sort(sorted)
	for t, key := range sorted {
		if t == 0 || key != sorted[t-1] {
			g.keys = append(g.keys, key)
			g.counts = append(g.counts, 0)
		}
		g.counts[len(g.counts)-1]++
	}
}

// coord returns the clamped cell coordinate of value v along axis t.
func (g *Grid) coord(t int, v float64) int {
	c := int((v - g.lo[t]) / g.width[t])
	if c < 0 {
		return 0
	}
	if c >= g.bins {
		return g.bins - 1
	}
	return c
}

func (g *Grid) encode(coords []int) int64 {
	var key int64
	for _, c := range coords {
		key = key*int64(g.bins) + int64(c)
	}
	return key
}

// decode writes the coordinates of the encoded cell into coords, which has
// one slot per building dimension, and returns it.
func (g *Grid) decode(key int64, coords []int) []int {
	for t := len(g.dims) - 1; t >= 0; t-- {
		coords[t] = int(key % int64(g.bins))
		key /= int64(g.bins)
	}
	return coords
}

// CellOfPoint returns the encoded cell containing a full d-dimensional point,
// such as a dataset row; it reads only the point's building dimensions.
func (g *Grid) CellOfPoint(point []float64) int64 {
	var key int64
	for t, j := range g.dims {
		key = key*int64(g.bins) + int64(g.coord(t, point[j]))
	}
	return key
}

// Count returns the number of objects in the encoded cell.
func (g *Grid) Count(cell int64) int {
	u, ok := slices.BinarySearch(g.keys, cell)
	if !ok {
		return 0
	}
	return g.counts[u]
}

// Objects returns a new slice of the objects in the encoded cell, in the
// order Build folded them in, or nil for an empty cell. It places the
// included objects again in that order until it has the cell's count, so a
// caller asks only for the cell it keeps.
func (g *Grid) Objects(cell int64) []int {
	n := g.Count(cell)
	if n == 0 {
		return nil
	}
	out := make([]int, 0, n)
	for t := 0; len(out) < n; t++ {
		if g.objectCell(t) == cell {
			out = append(out, object(g.include, t))
		}
	}
	return out
}

// Peak returns the densest cell and its count. The occupied cells are
// scanned in ascending key order and only a strictly larger count moves the
// answer, so ties go to the smallest encoded key.
func (g *Grid) Peak() (cell int64, count int) {
	best := -1
	for u, n := range g.counts {
		if n > best {
			best, cell = n, g.keys[u]
		}
	}
	return cell, best
}

// HillClimb performs the localized hill-climbing search of §4.2.1: starting
// from the given cell, it repeatedly moves to the densest neighboring cell
// (all 3^c−1 offsets of ±1 per axis) while that improves the density, and
// returns the local peak. Plateaus do not loop: only strict improvements
// move. Neighbors are visited in lexicographic order of their offsets, axis
// 0 slowest and −1 before 0 before +1, and the first of several equally
// dense neighbors wins.
func (g *Grid) HillClimb(start int64) int64 {
	c := len(g.dims)
	buf := make([]int, 3*c)
	cur, neighbor, delta := buf[:c], buf[c:2*c], buf[2*c:]
	for {
		g.decode(start, cur)
		best, bestCount := start, g.Count(start)
		for t := range delta {
			delta[t] = -1
		}
		for {
			inRange, moved := true, false
			for t, dt := range delta {
				v := cur[t] + dt
				if v < 0 || v >= g.bins {
					inRange = false
					break
				}
				neighbor[t] = v
				moved = moved || dt != 0
			}
			if inRange && moved {
				key := g.encode(neighbor)
				if n := g.Count(key); n > bestCount {
					best, bestCount = key, n
				}
			}
			// Advance the offsets like an odometer, the last axis fastest.
			t := c - 1
			for t >= 0 && delta[t] == 1 {
				delta[t] = -1
				t--
			}
			if t < 0 {
				break
			}
			delta[t]++
		}
		if best == start {
			return start
		}
		start = best
	}
}

// NumOccupiedCells returns how many cells contain at least one object.
func (g *Grid) NumOccupiedCells() int { return len(g.keys) }
