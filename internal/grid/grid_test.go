package grid

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func mustData(t *testing.T, rows [][]float64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildValidation(t *testing.T) {
	ds := mustData(t, [][]float64{{1, 2}, {3, 4}})
	if _, err := Build(ds, nil, 4, nil); err == nil {
		t.Error("no dims should error")
	}
	if _, err := Build(ds, []int{0}, 1, nil); err == nil {
		t.Error("1 bin should error")
	}
	if _, err := Build(ds, []int{0}, 4, []int{}); err == nil {
		t.Error("empty include should error")
	}
	big := make([]int, 30)
	if _, err := Build(ds, big, 100, nil); err == nil {
		t.Error("unencodable cell space should error")
	}
}

func TestGridCellMembership(t *testing.T) {
	// Two tight groups along dim 0: around 0 and around 10.
	ds := mustData(t, [][]float64{{0}, {0.1}, {0.2}, {10}, {9.9}})
	g, err := Build(ds, []int{0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	peak, count := g.Peak()
	if count != 3 {
		t.Errorf("peak count = %d, want 3", count)
	}
	objs := g.Objects(peak)
	if len(objs) != 3 {
		t.Errorf("peak members = %v", objs)
	}
	for _, o := range objs {
		if o > 2 {
			t.Errorf("wrong object %d in low peak", o)
		}
	}
}

func TestGridInclude(t *testing.T) {
	ds := mustData(t, [][]float64{{0}, {0}, {0}, {10}, {10}})
	g, err := Build(ds, []int{0}, 2, []int{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	_, count := g.Peak()
	if count != 2 {
		t.Errorf("peak with include = %d, want 2", count)
	}
	if g.NumOccupiedCells() != 1 {
		t.Errorf("occupied cells = %d", g.NumOccupiedCells())
	}
}

func TestCellOfPointMatchesObjects(t *testing.T) {
	ds := mustData(t, [][]float64{{1, 5}, {2, 6}, {9, 1}})
	g, err := Build(ds, []int{0, 1}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The cell of object 0's own projections must contain object 0.
	cell := g.CellOfPoint([]float64{ds.At(0, 0), ds.At(0, 1)})
	found := false
	for _, o := range g.Objects(cell) {
		if o == 0 {
			found = true
		}
	}
	if !found {
		t.Error("object 0 not in its own cell")
	}
}

func TestHillClimbReachesPeak(t *testing.T) {
	// Density ramp along one dimension: cells 0..4 hold 1,2,3,4,10 objects.
	var rows [][]float64
	add := func(v float64, times int) {
		for i := 0; i < times; i++ {
			rows = append(rows, []float64{v})
		}
	}
	add(0.5, 1)
	add(1.5, 2)
	add(2.5, 3)
	add(3.5, 4)
	add(4.4, 10)
	ds := mustData(t, rows)
	g, err := Build(ds, []int{0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := g.CellOfPoint([]float64{0.5})
	peak := g.HillClimb(start)
	if got := g.Count(peak); got != 10 {
		t.Errorf("hill climb stopped at density %d, want 10", got)
	}
}

func TestHillClimbStopsAtLocalPeak(t *testing.T) {
	// Two peaks separated by a valley; climbing from the left must stop at
	// the left peak (localized search, not global).
	var rows [][]float64
	add := func(v float64, times int) {
		for i := 0; i < times; i++ {
			rows = append(rows, []float64{v})
		}
	}
	add(0.5, 8)  // left peak (cell 0)
	add(1.5, 2)  // valley
	add(2.5, 1)  // valley
	add(3.5, 2)  // rise
	add(4.5, 20) // right peak (cell 4)
	ds := mustData(t, rows)
	g, err := Build(ds, []int{0}, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := g.CellOfPoint([]float64{1.5})
	peak := g.HillClimb(start)
	if got := g.Count(peak); got != 8 {
		t.Errorf("localized climb found density %d, want left peak 8", got)
	}
}

func TestHillClimbOnPlateauTerminates(t *testing.T) {
	ds := mustData(t, [][]float64{{0.5}, {1.5}, {2.5}, {3.5}})
	g, err := Build(ds, []int{0}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	start := g.CellOfPoint([]float64{1.5})
	peak := g.HillClimb(start) // all cells density 1: must not loop
	if g.Count(peak) != 1 {
		t.Errorf("plateau climb wrong: %d", g.Count(peak))
	}
}

func TestGridFindsSyntheticClusterCenter(t *testing.T) {
	// End-to-end: on a generated dataset, a grid over a cluster's true
	// relevant dims should have its peak populated mostly by that cluster.
	gt, err := synth.Generate(synth.Config{N: 500, D: 30, K: 3, AvgDims: 6, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		dims := gt.Dims[c][:3]
		g, err := Build(gt.Data, dims, 6, nil)
		if err != nil {
			t.Fatal(err)
		}
		peak, count := g.Peak()
		if count < 10 {
			t.Errorf("class %d: peak density %d too small", c, count)
			continue
		}
		inClass := 0
		for _, o := range g.Objects(peak) {
			if gt.Labels[o] == c {
				inClass++
			}
		}
		if frac := float64(inClass) / float64(count); frac < 0.8 {
			t.Errorf("class %d: only %.2f of peak objects are members", c, frac)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ds := mustData(t, [][]float64{{0, 0, 0}, {9, 9, 9}})
	g, err := Build(ds, []int{0, 1, 2}, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, coords := range [][]int{{0, 0, 0}, {6, 6, 6}, {1, 3, 5}, {2, 0, 4}} {
		key := g.encode(coords)
		back := g.decode(key, make([]int, 3))
		for t2 := range coords {
			if back[t2] != coords[t2] {
				t.Fatalf("round trip %v -> %v", coords, back)
			}
		}
	}
}

// mapGrid is the grid as a map from encoded cell to its objects in fold
// order, the layout Grid had before its CSR form. It is kept here as the
// reference the CSR layout must reproduce.
type mapGrid struct {
	g     *Grid
	cells map[int64][]int
}

func newMapGrid(g *Grid, ds *dataset.Dataset, include []int) *mapGrid {
	r := &mapGrid{g: g, cells: map[int64][]int{}}
	fold := func(i int) {
		key := g.CellOfPoint(ds.Row(i))
		r.cells[key] = append(r.cells[key], i)
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
	return r
}

func (r *mapGrid) peak() (int64, int) {
	best := -1
	var arg int64
	for key, members := range r.cells {
		if len(members) > best || (len(members) == best && key < arg) {
			best = len(members)
			arg = key
		}
	}
	return arg, best
}

func (r *mapGrid) hillClimb(start int64) int64 {
	bins := r.g.bins
	decode := func(key int64) []int {
		coords := make([]int, len(r.g.dims))
		for t := len(coords) - 1; t >= 0; t-- {
			coords[t] = int(key % int64(bins))
			key /= int64(bins)
		}
		return coords
	}
	cur := start
	curCoords := decode(cur)
	for {
		bestCell := cur
		bestCount := len(r.cells[cur])
		improved := false
		neighbor := make([]int, len(curCoords))
		var visit func(axis int, changed bool)
		visit = func(axis int, changed bool) {
			if axis == len(curCoords) {
				if !changed {
					return
				}
				var key int64
				for _, c := range neighbor {
					key = key*int64(bins) + int64(c)
				}
				if c := len(r.cells[key]); c > bestCount {
					bestCount = c
					bestCell = key
					improved = true
				}
				return
			}
			for delta := -1; delta <= 1; delta++ {
				v := curCoords[axis] + delta
				if v < 0 || v >= bins {
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
		curCoords = decode(cur)
	}
}

// TestCSRMatchesMapReference: the CSR grid answers every query exactly like
// a map of per-cell slices filled in fold order — Peak, Count and Objects
// (in include order) of every occupied cell and of empty ones,
// NumOccupiedCells, and HillClimb from occupied and empty cells. The data
// are coarse integers, so many neighbors tie. Grids
// with 216 and 9 cells run the dense counting layout; grids with 6^8 and
// 6^10 cells run the sort layout. Each runs over all objects, an ascending
// include list and a shuffled one.
func TestCSRMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, d = 400, 12
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(rng.Intn(7))
		}
	}
	ds := mustData(t, rows)
	var ascending []int
	for i := 0; i < n; i++ {
		if rng.Intn(3) > 0 {
			ascending = append(ascending, i)
		}
	}
	shuffled := slices.Clone(ascending)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	includes := map[string][]int{"all": nil, "ascending": ascending, "shuffled": shuffled}

	shapes := []struct {
		dims  []int
		bins  int
		dense bool
	}{
		{[]int{1, 4, 9}, 6, true},
		{[]int{0, 11}, 3, true},
		{[]int{0, 1, 2, 3, 5, 6, 7, 8}, 6, false},
		{[]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 6, false},
	}
	for _, sh := range shapes {
		for name, include := range includes {
			t.Run(fmt.Sprintf("c=%d/bins=%d/%s", len(sh.dims), sh.bins, name), func(t *testing.T) {
				g, err := Build(ds, sh.dims, sh.bins, include)
				if err != nil {
					t.Fatal(err)
				}
				cells := int64(1)
				for range sh.dims {
					cells *= int64(sh.bins)
				}
				m := n
				if include != nil {
					m = len(include)
				}
				if denseFits(cells, m) != sh.dense {
					t.Fatalf("%d cells over %d objects: dense layout = %v, want %v", cells, m, !sh.dense, sh.dense)
				}
				ref := newMapGrid(g, ds, include)
				if got, want := g.NumOccupiedCells(), len(ref.cells); got != want {
					t.Errorf("NumOccupiedCells = %d, want %d", got, want)
				}
				gotCell, gotCount := g.Peak()
				wantCell, wantCount := ref.peak()
				if gotCell != wantCell || gotCount != wantCount {
					t.Errorf("Peak = (%d, %d), want (%d, %d)", gotCell, gotCount, wantCell, wantCount)
				}
				climbs := 0
				for key, members := range ref.cells {
					if got := g.Count(key); got != len(members) {
						t.Errorf("Count(%d) = %d, want %d", key, got, len(members))
					}
					if got := g.Objects(key); !slices.Equal(got, members) {
						t.Errorf("Objects(%d) = %v, want %v", key, got, members)
					}
					// A climb visits 3^c−1 neighbors a step; 40 starts
					// per grid keep c=10 fast.
					if climbs++; climbs <= 40 {
						if got, want := g.HillClimb(key), ref.hillClimb(key); got != want {
							t.Errorf("HillClimb(%d) = %d, want %d", key, got, want)
						}
					}
				}
				for probe := 0; probe < 20; probe++ {
					key := rng.Int63n(cells)
					if _, occupied := ref.cells[key]; occupied {
						continue
					}
					if g.Count(key) != 0 || g.Objects(key) != nil {
						t.Errorf("empty cell %d: Count = %d, Objects = %v", key, g.Count(key), g.Objects(key))
					}
					if got, want := g.HillClimb(key), ref.hillClimb(key); got != want {
						t.Errorf("HillClimb(%d) from an empty cell = %d, want %d", key, got, want)
					}
				}
			})
		}
	}
}

// TestPeakTieGoesToSmallestKey: when two cells hold the most objects, Peak
// returns the smaller key, in the dense and the sort layout, even when the
// larger key's objects are folded in first.
func TestPeakTieGoesToSmallestKey(t *testing.T) {
	// Column 0: two objects in cell 3, then two in cell 0, one in cell 1.
	// Columns 1..9 are constant, so every object has coordinate 0 there.
	var rows [][]float64
	for _, v := range []float64{3.5, 3.5, 0.5, 0.5, 1.5} {
		rows = append(rows, make([]float64, 10))
		rows[len(rows)-1][0] = v
	}
	ds := mustData(t, rows)
	for _, dims := range [][]int{{0}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9}} {
		g, err := Build(ds, dims, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want int64 // cell 0 on every axis
		if cell, count := g.Peak(); cell != want || count != 2 {
			t.Errorf("c=%d: Peak = (%d, %d), want (%d, 2)", len(dims), cell, count, want)
		}
		if got := g.Objects(want); !slices.Equal(got, []int{2, 3}) {
			t.Errorf("c=%d: Objects(peak) = %v, want [2 3]", len(dims), got)
		}
	}
}
