package dataset

import (
	"math/rand"
	"testing"
)

// gatherFixture builds an n×d dataset with distinct values per cell plus a
// shard-backed copy of it.
func gatherFixture(t *testing.T, n, d, shards int) (*Dataset, *Dataset) {
	t.Helper()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = float64(i*d + j)
		}
	}
	flat, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return flat, shardBacked(t, flat, shards)
}

// memberPatterns covers the index shapes the algorithms produce: ascending
// scattered lists (cluster members), dense consecutive runs (whole chunks),
// runs straddling shard boundaries, singletons, and — although no current
// caller produces them — arbitrary unsorted lists.
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
	flat, sharded := gatherFixture(t, n, d, 4)
	for name, members := range memberPatterns(n) {
		for label, ds := range map[string]*Dataset{"flat": flat, "sharded": sharded} {
			dst := make([]float64, len(members)*d)
			got := ds.GatherRows(members, dst)
			if len(got) != len(members)*d {
				t.Fatalf("%s/%s: len = %d, want %d", label, name, len(got), len(members)*d)
			}
			for t2, i := range members {
				for j := 0; j < d; j++ {
					if got[t2*d+j] != ds.At(i, j) {
						t.Fatalf("%s/%s: row %d dim %d = %v, want %v",
							label, name, i, j, got[t2*d+j], ds.At(i, j))
					}
				}
			}
		}
	}
}

func TestGatherColumnMatchesAt(t *testing.T) {
	const n, d = 29, 4
	flat, sharded := gatherFixture(t, n, d, 5)
	for name, members := range memberPatterns(n) {
		for label, ds := range map[string]*Dataset{"flat": flat, "sharded": sharded} {
			for j := 0; j < d; j++ {
				dst := make([]float64, len(members))
				got := ds.GatherColumn(members, j, dst)
				for t2, i := range members {
					if got[t2] != ds.At(i, j) {
						t.Fatalf("%s/%s: dim %d member %d = %v, want %v",
							label, name, j, i, got[t2], ds.At(i, j))
					}
				}
			}
		}
	}
}

// TestGatherRowsShardBoundaryRuns pins the run-coalescing logic: a
// consecutive run that crosses a shard boundary must split exactly at the
// boundary and still land every value in the right slot.
func TestGatherRowsShardBoundaryRuns(t *testing.T) {
	const n, d = 10, 3
	flat, sharded := gatherFixture(t, n, d, 3) // shardRows = 4: shards [0,4) [4,8) [8,10)
	members := []int{2, 3, 4, 5, 6, 7, 8, 9}   // one run across two boundaries
	want := flat.GatherRows(members, make([]float64, len(members)*d))
	got := sharded.GatherRows(members, make([]float64, len(members)*d))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("value %d: sharded %v != flat %v", i, got[i], want[i])
		}
	}
}

// TestGatherZeroAlloc pins the steady-state allocation contract of the bulk
// accessors: with a pre-sized dst they never allocate, flat or sharded.
func TestGatherZeroAlloc(t *testing.T) {
	const n, d = 64, 8
	flat, sharded := gatherFixture(t, n, d, 5)
	members := []int{0, 3, 4, 5, 17, 31, 32, 63}
	for label, ds := range map[string]*Dataset{"flat": flat, "sharded": sharded} {
		rowDst := make([]float64, len(members)*d)
		colDst := make([]float64, len(members))
		if allocs := testing.AllocsPerRun(100, func() {
			ds.GatherRows(members, rowDst)
		}); allocs != 0 {
			t.Errorf("%s: GatherRows allocs/op = %v, want 0", label, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			ds.GatherColumn(members, d/2, colDst)
		}); allocs != 0 {
			t.Errorf("%s: GatherColumn allocs/op = %v, want 0", label, allocs)
		}
	}
}
