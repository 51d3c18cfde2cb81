package dataset

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

// randomDataset builds a deterministic n×d test matrix with a few negative,
// large, and tiny values so min/max and variance have something to chew on.
func randomDataset(t *testing.T, n, d int, seed int64) *Dataset {
	t.Helper()
	rng := stats.NewRNG(seed)
	ds, err := New(n, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			ds.Set(i, j, (rng.Float64()-0.5)*1e3)
		}
	}
	return ds
}

// requireSameValues asserts a and b expose identical shapes and bitwise
// identical values through every accessor.
func requireSameValues(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.N() != b.N() || a.D() != b.D() {
		t.Fatalf("shape %dx%d vs %dx%d", a.N(), a.D(), b.N(), b.D())
	}
	for i := 0; i < a.N(); i++ {
		if !reflect.DeepEqual(a.Row(i), b.Row(i)) {
			t.Fatalf("row %d differs", i)
		}
		for j := 0; j < a.D(); j++ {
			if a.At(i, j) != b.At(i, j) {
				t.Fatalf("At(%d,%d): %v vs %v", i, j, a.At(i, j), b.At(i, j))
			}
		}
	}
	for j := 0; j < a.D(); j++ {
		if !reflect.DeepEqual(a.Col(j), b.Col(j)) {
			t.Fatalf("col %d differs", j)
		}
	}
}

// requireSameStats asserts bitwise-identical column statistics — the
// sharded-vs-flat byte-identity guarantee of the determinism contract.
func requireSameStats(t *testing.T, a, b *Dataset) {
	t.Helper()
	for j := 0; j < a.D(); j++ {
		if a.ColMean(j) != b.ColMean(j) {
			t.Errorf("col %d mean: %v vs %v", j, a.ColMean(j), b.ColMean(j))
		}
		if a.ColVariance(j) != b.ColVariance(j) {
			t.Errorf("col %d variance: %v vs %v", j, a.ColVariance(j), b.ColVariance(j))
		}
		if a.ColMin(j) != b.ColMin(j) {
			t.Errorf("col %d min: %v vs %v", j, a.ColMin(j), b.ColMin(j))
		}
		if a.ColMax(j) != b.ColMax(j) {
			t.Errorf("col %d max: %v vs %v", j, a.ColMax(j), b.ColMax(j))
		}
	}
}

// shardBacked re-backs ds as read-only shard blocks of ceil(n/min(k,n)) rows
// each through FromShardBlocks — the mmap tier's representation, built on
// the heap — so storage tests can compare it with the flat original.
func shardBacked(t *testing.T, ds *Dataset, k int) *Dataset {
	t.Helper()
	shardRows := (ds.n + min(k, ds.n) - 1) / min(k, ds.n)
	var blocks [][]float64
	for lo := 0; lo < ds.n; lo += shardRows {
		blocks = append(blocks, append([]float64(nil), ds.data[lo*ds.d:min(lo+shardRows, ds.n)*ds.d]...))
	}
	sh, err := FromShardBlocks(ds.d, shardRows, blocks, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestShardsPartition checks the shard geometry FromShardBlocks adopts:
// ShardRows reports the block size, every row lands in its shard, and the
// values match the flat original — down to one row per shard.
func TestShardsPartition(t *testing.T) {
	ds := randomDataset(t, 23, 4, 1)
	for _, k := range []int{1, 2, 3, 5, 23} {
		sh := shardBacked(t, ds, k)
		if want := (23 + k - 1) / k; sh.ShardRows() != want {
			t.Fatalf("%d shards: ShardRows = %d, want %d", k, sh.ShardRows(), want)
		}
		requireSameValues(t, ds, sh)
	}
}

// TestShardsInvalidCount: FromShardBlocks rejects every geometry that does
// not tile the rows — a non-positive shard size or width, no blocks, a short
// block before the last, an oversized or ragged block, and partials that do
// not match the blocks.
func TestShardsInvalidCount(t *testing.T) {
	two := []float64{1, 2, 3, 4} // two rows of d = 2
	one := []float64{5, 6}
	for name, tc := range map[string]struct {
		d, shardRows int
		blocks       [][]float64
		mins, maxs   [][]float64
	}{
		"zero shardRows":     {2, 0, [][]float64{two}, nil, nil},
		"negative shardRows": {2, -1, [][]float64{two}, nil, nil},
		"zero d":             {0, 2, [][]float64{two}, nil, nil},
		"no blocks":          {2, 2, nil, nil, nil},
		"short middle block": {2, 2, [][]float64{one, two}, nil, nil},
		"oversized block":    {2, 1, [][]float64{two}, nil, nil},
		"ragged block":       {2, 2, [][]float64{{1, 2, 3}}, nil, nil},
		"mins without maxs":  {2, 2, [][]float64{two}, [][]float64{{1, 2}}, nil},
		"partial width":      {2, 2, [][]float64{two}, [][]float64{{1}}, [][]float64{{3}}},
	} {
		if _, err := FromShardBlocks(tc.d, tc.shardRows, tc.blocks, tc.mins, tc.maxs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestShardsSingleEquivalentToFlat: one shard holding the whole matrix is
// observationally identical to the flat dataset — values and statistics bit
// for bit.
func TestShardsSingleEquivalentToFlat(t *testing.T) {
	ds := randomDataset(t, 17, 5, 3)
	sh := shardBacked(t, ds, 1)
	if sh.ShardRows() != 17 || ds.ShardRows() != 0 {
		t.Fatalf("ShardRows: shard-backed copy %d, flat original %d; want 17 and 0", sh.ShardRows(), ds.ShardRows())
	}
	requireSameValues(t, ds, sh)
	requireSameStats(t, ds, sh)
}

// TestShardedStatsMatchFlat: the statistics snapshot merged from the
// per-shard partials is bitwise identical to the flat snapshot for every
// shard size, down to one row per shard.
func TestShardedStatsMatchFlat(t *testing.T) {
	ds := randomDataset(t, 101, 7, 4)
	for _, k := range []int{2, 3, 8, 101, 500} {
		sh := shardBacked(t, ds, k)
		requireSameValues(t, ds, sh)
		requireSameStats(t, ds, sh)
	}
}

// TestShardedCloneIsFlat: Clone of shard-backed storage is a writable flat
// copy with the same values and statistics, independent of the original;
// the original itself refuses Set.
func TestShardedCloneIsFlat(t *testing.T) {
	ds := randomDataset(t, 31, 3, 5)
	sh := shardBacked(t, ds, 4)
	cl := sh.Clone()
	if cl.ShardRows() != 0 {
		t.Fatalf("clone ShardRows = %d, want 0 (flat)", cl.ShardRows())
	}
	requireSameValues(t, sh, cl)
	requireSameStats(t, ds, cl)
	cl.Set(0, 0, -9999)
	if sh.At(0, 0) == -9999 {
		t.Fatal("clone shares shard backing with the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set on shard-backed storage did not panic")
		}
	}()
	sh.Set(0, 0, 1)
}

// TestShardedStatsConcurrentReaders races the lazy stats merge: many
// goroutines trigger ensureStats on one shard-backed dataset concurrently
// while others read rows (meaningful under -race), and every observed
// snapshot must equal the flat one.
func TestShardedStatsConcurrentReaders(t *testing.T) {
	ds := randomDataset(t, 257, 6, 6)
	sh := shardBacked(t, ds, 5)
	want := make([]float64, ds.D())
	for j := range want {
		want[j] = ds.ColVariance(j)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < sh.D(); j++ {
				if got := sh.ColVariance(j); got != want[j] {
					t.Errorf("goroutine %d: col %d variance %v, want %v", g, j, got, want[j])
				}
				if sh.ColMin(j) > sh.ColMax(j) {
					t.Errorf("goroutine %d: col %d min > max", g, j)
				}
			}
			for i := 0; i < sh.N(); i++ {
				_ = sh.Row(i)
			}
		}(g)
	}
	wg.Wait()
}

// TestReadCSVRejects: ScanCSV's contract through ReadCSV — ragged rows,
// non-finite values, unparsable fields and empty input are errors.
func TestReadCSVRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input string
	}{
		{"ragged short", "1,2\n3\n"},
		{"ragged long", "1,2\n3,4,5\n"},
		{"NaN", "NaN,1\n2,3\n"},
		{"Inf", "Inf,1\n2,3\n"},
		{"overflow", "1e309,0\n"},
		{"non-numeric", "1,2\n3,x\n"},
		{"empty", ""},
		{"header only", "a,b\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			header := tc.name == "header only"
			if _, err := ReadCSV(strings.NewReader(tc.input), header); err == nil {
				t.Error("accepted")
			}
		})
	}
}

// TestReadCSVNonFiniteNeverSurvives mirrors the fuzz loaders' finiteness leg
// on a near-miss input: values that round to finite floats must load,
// spellings of infinity must not.
func TestReadCSVNonFiniteNeverSurvives(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("1e308,-1e308\n0,0\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	requireFiniteRectangular(t, ds)
}
