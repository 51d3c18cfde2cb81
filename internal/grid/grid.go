// Package grid implements the multi-dimensional histograms ("grids") that
// SSPC's initialization builds over candidate relevant dimensions, together
// with the localized hill-climbing search used to find the density peak near
// a starting point (paper §4.2.1). A grid over c building dimensions divides
// each dimension's range into a fixed number of equi-width cells; when all c
// dimensions are relevant to one cluster, one cell near the cluster center
// holds an unexpectedly large number of objects.
package grid

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
)

// Grid is a multi-dimensional equi-width histogram over a subset of
// dimensions.
type Grid struct {
	dims  []int
	bins  int
	lo    []float64
	width []float64
	cells map[int64][]int // encoded cell -> member object ids
}

// Build constructs a grid over the given dimensions with bins cells per
// dimension. If include is non-nil, only those objects are folded in — SSPC
// excludes likely members of already-initialized seed groups this way
// (§4.2). It returns an error when the cell space cannot be encoded or when
// no objects are included.
func Build(ds *dataset.Dataset, dims []int, bins int, include []int) (*Grid, error) {
	if len(dims) == 0 {
		return nil, errors.New("grid: no building dimensions")
	}
	if bins < 2 {
		return nil, errors.New("grid: need at least 2 bins per dimension")
	}
	if math.Pow(float64(bins), float64(len(dims))) >= math.MaxInt64/2 {
		return nil, fmt.Errorf("grid: %d^%d cells cannot be encoded", bins, len(dims))
	}
	g := &Grid{
		dims:  append([]int(nil), dims...),
		bins:  bins,
		lo:    make([]float64, len(dims)),
		width: make([]float64, len(dims)),
		cells: make(map[int64][]int),
	}
	for t, j := range dims {
		lo, hi := ds.ColMin(j), ds.ColMax(j)
		if hi <= lo {
			hi = lo + 1
		}
		g.lo[t] = lo
		g.width[t] = (hi - lo) / float64(bins)
	}
	fold := func(i int) {
		key := g.CellOfPoint(ds.Row(i))
		g.cells[key] = append(g.cells[key], i)
	}
	if include == nil {
		for i := 0; i < ds.N(); i++ {
			fold(i)
		}
	} else {
		for _, i := range include {
			fold(i)
		}
	}
	if len(g.cells) == 0 {
		return nil, errors.New("grid: no objects included")
	}
	return g, nil
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

func (g *Grid) decode(key int64) []int {
	coords := make([]int, len(g.dims))
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
func (g *Grid) Count(cell int64) int { return len(g.cells[cell]) }

// Objects returns the objects in the encoded cell (shared slice; do not
// modify).
func (g *Grid) Objects(cell int64) []int { return g.cells[cell] }

// Peak returns the densest cell and its count (ties broken by smallest
// encoded key for determinism).
func (g *Grid) Peak() (cell int64, count int) {
	best := -1
	var arg int64
	for key, members := range g.cells {
		if len(members) > best || (len(members) == best && key < arg) {
			best = len(members)
			arg = key
		}
	}
	return arg, best
}

// HillClimb performs the localized hill-climbing search of §4.2.1: starting
// from the given cell, it repeatedly moves to the densest neighboring cell
// (all 3^c−1 offsets of ±1 per axis) while that improves the density, and
// returns the local peak. Plateaus do not loop: only strict improvements
// move.
func (g *Grid) HillClimb(start int64) int64 {
	cur := start
	curCoords := g.decode(cur)
	for {
		bestCell := cur
		bestCount := g.Count(cur)
		improved := false
		neighbor := make([]int, len(curCoords))
		var visit func(axis int, changed bool)
		visit = func(axis int, changed bool) {
			if axis == len(curCoords) {
				if !changed {
					return
				}
				key := g.encode(neighbor)
				if c := g.Count(key); c > bestCount {
					bestCount = c
					bestCell = key
					improved = true
				}
				return
			}
			for delta := -1; delta <= 1; delta++ {
				v := curCoords[axis] + delta
				if v < 0 || v >= g.bins {
					continue
				}
				neighbor[axis] = v
				visit(axis+1, changed || delta != 0)
			}
		}
		visit(0, false)
		if !improved {
			return cur
		}
		cur = bestCell
		curCoords = g.decode(cur)
	}
}

// NumOccupiedCells returns how many cells contain at least one object.
func (g *Grid) NumOccupiedCells() int { return len(g.cells) }
