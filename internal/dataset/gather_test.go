package dataset

import (
	"math/rand"
	"testing"
)

// gatherFixture builds an n×d dataset with distinct values per cell.
func gatherFixture(t *testing.T, n, d int) *Dataset {
	t.Helper()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(i*d + j)
		}
	}
	ds, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// memberPatterns covers the index shapes the algorithms produce: ascending
// scattered lists (cluster members), dense consecutive runs (whole chunks),
// singletons, and — although no current caller produces them — arbitrary
// unsorted lists.
func memberPatterns(n int) map[string][]int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	scattered := []int{}
	for i := 0; i < n; i += 3 {
		scattered = append(scattered, i)
	}
	rng := rand.New(rand.NewSource(7))
	unsorted := append([]int(nil), all...)
	rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
	return map[string][]int{
		"empty":     {},
		"singleton": {n / 2},
		"first":     {0},
		"last":      {n - 1},
		"scattered": scattered,
		"run":       all[n/4 : 3*n/4],
		"all":       all,
		"unsorted":  unsorted,
		"repeats":   {2, 2, 5, 5, 5, n - 1, 0},
	}
}

func TestGatherRowsMatchesAt(t *testing.T) {
	const n, d = 23, 5
	ds := gatherFixture(t, n, d)
	for name, members := range memberPatterns(n) {
		dst := make([]float64, len(members)*d)
		got := ds.GatherRows(members, dst)
		if len(got) != len(members)*d {
			t.Fatalf("%s: len = %d, want %d", name, len(got), len(members)*d)
		}
		for t2, i := range members {
			for j := 0; j < d; j++ {
				if got[t2*d+j] != ds.At(i, j) {
					t.Fatalf("%s: row %d dim %d = %v, want %v", name, i, j, got[t2*d+j], ds.At(i, j))
				}
			}
		}
	}
}

func TestGatherColumnMatchesAt(t *testing.T) {
	const n, d = 29, 4
	ds := gatherFixture(t, n, d)
	for name, members := range memberPatterns(n) {
		for j := 0; j < d; j++ {
			dst := make([]float64, len(members))
			got := ds.GatherColumn(members, j, dst)
			for t2, i := range members {
				if got[t2] != ds.At(i, j) {
					t.Fatalf("%s: dim %d member %d = %v, want %v", name, j, i, got[t2], ds.At(i, j))
				}
			}
		}
	}
}

// TestGatherZeroAlloc pins the steady-state allocation contract of the bulk
// accessors: with a pre-sized dst they never allocate.
func TestGatherZeroAlloc(t *testing.T) {
	const n, d = 64, 8
	ds := gatherFixture(t, n, d)
	members := []int{0, 3, 4, 5, 17, 31, 32, 63}
	rowDst := make([]float64, len(members)*d)
	colDst := make([]float64, len(members))
	if allocs := testing.AllocsPerRun(100, func() {
		ds.GatherRows(members, rowDst)
	}); allocs != 0 {
		t.Errorf("GatherRows allocs/op = %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		ds.GatherColumn(members, d/2, colDst)
	}); allocs != 0 {
		t.Errorf("GatherColumn allocs/op = %v, want 0", allocs)
	}
}
