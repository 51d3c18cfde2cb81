package dataset

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mustFromRows(t *testing.T, rows [][]float64) *Dataset {
	t.Helper()
	ds, err := FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFromRowsValidation(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty input should error")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged input should error")
	}
	if _, err := FromRows([][]float64{{1, math.NaN()}}); err == nil {
		t.Error("NaN should error")
	}
	if _, err := FromRows([][]float64{{math.Inf(1)}}); err == nil {
		t.Error("Inf should error")
	}
	if _, err := New(0, 3); err == nil {
		t.Error("zero rows should error")
	}
}

func TestAtSetRowCol(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	if ds.N() != 2 || ds.D() != 3 {
		t.Fatalf("shape %dx%d", ds.N(), ds.D())
	}
	if ds.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %v", ds.At(1, 2))
	}
	ds.Set(1, 2, 9)
	if ds.At(1, 2) != 9 {
		t.Errorf("after Set, At = %v", ds.At(1, 2))
	}
	row := ds.Row(0)
	if len(row) != 3 || row[1] != 2 {
		t.Errorf("Row(0) = %v", row)
	}
	col := ds.ColInto(2, make([]float64, 2))
	if col[0] != 3 || col[1] != 9 {
		t.Errorf("ColInto(2) = %v", col)
	}
	buf := make([]float64, 2)
	got := ds.ColInto(1, buf)
	if got[0] != 2 || got[1] != 5 {
		t.Errorf("ColInto = %v", got)
	}
}

func TestColumnStats(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1, 10}, {2, 20}, {3, 30}})
	if got := ds.ColMean(0); got != 2 {
		t.Errorf("ColMean(0) = %v", got)
	}
	if got := ds.ColVariance(1); got != 100 {
		t.Errorf("ColVariance(1) = %v", got)
	}
	if ds.ColMin(1) != 10 || ds.ColMax(1) != 30 {
		t.Error("min/max wrong")
	}
}

func TestColumnStatsInvalidatedBySet(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1}, {3}})
	if ds.ColMean(0) != 2 {
		t.Fatal("precondition")
	}
	ds.Set(0, 0, 5)
	if ds.ColMean(0) != 4 {
		t.Errorf("stats stale after Set: %v", ds.ColMean(0))
	}
}

func TestMedianAndMeanVector(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1, 10}, {2, 20}, {9, 90}})
	med := ds.MedianVector([]int{0, 1, 2})
	if med[0] != 2 || med[1] != 20 {
		t.Errorf("MedianVector = %v", med)
	}
	mean := ds.MeanVector([]int{0, 1, 2})
	if mean[0] != 4 || mean[1] != 40 {
		t.Errorf("MeanVector = %v", mean)
	}
	zero := ds.MeanVector(nil)
	if zero[0] != 0 || zero[1] != 0 {
		t.Errorf("MeanVector(nil) = %v", zero)
	}
}

func TestCloneIndependent(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1, 2}})
	cp := ds.Clone()
	cp.Set(0, 0, 7)
	if ds.At(0, 0) != 1 {
		t.Error("Clone shares storage")
	}
}

func TestAppendColumns(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5}, {6}})
	c, err := a.AppendColumns(b)
	if err != nil {
		t.Fatal(err)
	}
	if c.D() != 3 || c.At(1, 2) != 6 || c.At(0, 1) != 2 {
		t.Errorf("combined wrong: %v %v", c.Row(0), c.Row(1))
	}
	short := mustFromRows(t, [][]float64{{1}})
	if _, err := a.AppendColumns(short); err == nil {
		t.Error("row mismatch should error")
	}
}

func TestEuclideanSq(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{0, 0, 0}, {3, 4, 12}})
	if got := ds.EuclideanSq(0, 1, nil); got != 9+16+144 {
		t.Errorf("full dist = %v", got)
	}
	if got := ds.EuclideanSq(0, 1, []int{0, 1}); got != 25 {
		t.Errorf("subspace dist = %v", got)
	}
	if got := ds.EuclideanSq(0, 0, nil); got != 0 {
		t.Errorf("self dist = %v", got)
	}
}

func TestSegmentalDistance(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1, 5, 9}})
	point := []float64{0, 0, 0}
	if got := ds.SegmentalDistance(0, point, []int{0, 2}); got != 5 {
		t.Errorf("segmental = %v, want (1+9)/2", got)
	}
	if got := ds.SegmentalDistance(0, point, nil); got != 0 {
		t.Errorf("empty dims = %v", got)
	}
}

// Property: column stats computed via the cache match direct computation for
// random matrices.
func TestColumnStatsMatchDirect(t *testing.T) {
	f := func(seed int64) bool {
		g := newTestRNG(seed)
		n, d := 2+g.Intn(20), 1+g.Intn(8)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = g.NormFloat64() * 10
			}
		}
		ds, err := FromRows(rows)
		if err != nil {
			return false
		}
		for j := 0; j < d; j++ {
			col := ds.ColInto(j, make([]float64, ds.N()))
			mean, variance := meanVar(col)
			if math.Abs(ds.ColMean(j)-mean) > 1e-9 ||
				math.Abs(ds.ColVariance(j)-variance) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReadWriteCSVRoundTrip(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1.5, -2}, {3, 4.25}})
	labels := []int{0, -1}
	var sb strings.Builder
	if err := WriteCSV(&sb, ds, labels); err != nil {
		t.Fatal(err)
	}
	back, lbl, err := ReadLabeledCSV(strings.NewReader(sb.String()), false)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 2 || back.D() != 2 || back.At(0, 0) != 1.5 || back.At(1, 1) != 4.25 {
		t.Errorf("round trip data wrong: %v %v", back.Row(0), back.Row(1))
	}
	if lbl[0] != 0 || lbl[1] != -1 {
		t.Errorf("round trip labels wrong: %v", lbl)
	}
}

func TestReadCSVPlain(t *testing.T) {
	ds, err := ReadCSV(strings.NewReader("a,b\n1,2\n3,4\n"), true)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != 2 || ds.At(1, 0) != 3 {
		t.Errorf("csv parse wrong")
	}
	if _, err := ReadCSV(strings.NewReader("x,y\n"), true); err == nil {
		t.Error("header-only should error")
	}
	if _, err := ReadCSV(strings.NewReader("1,notanumber\n"), false); err == nil {
		t.Error("non-numeric should error")
	}
}

func TestWriteCSVLabelMismatch(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1}})
	var sb strings.Builder
	if err := WriteCSV(&sb, ds, []int{1, 2}); err == nil {
		t.Error("label length mismatch should error")
	}
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
