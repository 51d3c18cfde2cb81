package dataset

import (
	"reflect"
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

// requireSameStats asserts bitwise-identical column statistics.
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

// TestFromReadOnlyShape: FromReadOnly rejects every shape its slice does not
// fill exactly — a non-positive n or d, and missing, surplus or ragged
// values — and adopts a slice that fits without copying it.
func TestFromReadOnlyShape(t *testing.T) {
	six := []float64{1, 2, 3, 4, 5, 6}
	for name, tc := range map[string]struct {
		n, d int
		data []float64
	}{
		"zero n":      {0, 2, six},
		"negative n":  {-3, 2, six},
		"zero d":      {3, 0, six},
		"negative d":  {3, -2, six},
		"nil data":    {3, 2, nil},
		"short data":  {4, 2, six},
		"long data":   {2, 2, six},
		"ragged data": {1, 4, six},
	} {
		if _, err := FromReadOnly(tc.n, tc.d, tc.data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ds, err := FromReadOnly(3, 2, six)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 3 || ds.D() != 2 || ds.At(2, 1) != 6 {
		t.Fatalf("shape %dx%d, At(2,1) = %v; want 3x2 and 6", ds.N(), ds.D(), ds.At(2, 1))
	}
	six[0] = -1
	if ds.At(0, 0) != -1 {
		t.Fatal("FromReadOnly copied its slice instead of adopting it")
	}
}

// TestReadOnlyCloneIsWritable: Clone of a read-only dataset is a writable
// copy with the same values and statistics, independent of the original;
// the original itself refuses Set.
func TestReadOnlyCloneIsWritable(t *testing.T) {
	ds := randomDataset(t, 31, 3, 5)
	ro, err := FromReadOnly(ds.N(), ds.D(), append([]float64(nil), ds.data...))
	if err != nil {
		t.Fatal(err)
	}
	cl := ro.Clone()
	requireSameValues(t, ro, cl)
	requireSameStats(t, ds, cl)
	cl.Set(0, 0, -9999)
	if ro.At(0, 0) == -9999 {
		t.Fatal("clone shares storage with the original")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Set on a read-only dataset did not panic")
		}
	}()
	ro.Set(0, 0, 1)
}

// TestStatsConcurrentReaders races the lazy stats snapshot: many goroutines
// trigger ensureStats on one dataset concurrently while others read rows
// (meaningful under -race), and every observed snapshot must equal one
// computed beforehand on a clone.
func TestStatsConcurrentReaders(t *testing.T) {
	ds := randomDataset(t, 257, 6, 6)
	ref := ds.Clone()
	want := make([]float64, ds.D())
	for j := range want {
		want[j] = ref.ColVariance(j)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < ds.D(); j++ {
				if got := ds.ColVariance(j); got != want[j] {
					t.Errorf("goroutine %d: col %d variance %v, want %v", g, j, got, want[j])
				}
				if ds.ColMin(j) > ds.ColMax(j) {
					t.Errorf("goroutine %d: col %d min > max", g, j)
				}
			}
			for i := 0; i < ds.N(); i++ {
				_ = ds.Row(i)
			}
		}(g)
	}
	wg.Wait()
}
