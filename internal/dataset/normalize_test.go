package dataset

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZScoreNormalize(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{1, 100}, {2, 200}, {3, 300}})
	out, err := ZScoreNormalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if math.Abs(out.ColMean(j)) > 1e-12 {
			t.Errorf("col %d mean = %v", j, out.ColMean(j))
		}
		if math.Abs(out.ColVariance(j)-1) > 1e-12 {
			t.Errorf("col %d variance = %v", j, out.ColVariance(j))
		}
	}
	// Input untouched.
	if ds.At(0, 0) != 1 {
		t.Error("normalization mutated the input")
	}
}

func TestZScoreConstantColumn(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{5, 1}, {5, 2}})
	out, err := ZScoreNormalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 0 || out.At(1, 0) != 0 {
		t.Error("constant column should normalize to zeros")
	}
}

func TestMinMaxNormalize(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{10, -1}, {20, 0}, {30, 3}})
	out, err := MinMaxNormalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		if out.ColMin(j) != 0 || out.ColMax(j) != 1 {
			t.Errorf("col %d range [%v,%v]", j, out.ColMin(j), out.ColMax(j))
		}
	}
	if out.At(1, 0) != 0.5 {
		t.Errorf("midpoint = %v", out.At(1, 0))
	}
}

func TestNormalizeByName(t *testing.T) {
	ds := mustFromRows(t, [][]float64{{10, -1}, {20, 0}, {30, 3}, {35, 9}})
	for _, method := range []string{"", "none"} {
		if out, err := Normalize(ds, method); err != nil || out != ds {
			t.Errorf("Normalize(%q) = %p, %v; want ds itself", method, out, err)
		}
	}
	for method, fn := range map[string]func(*Dataset) (*Dataset, error){
		"zscore": ZScoreNormalize, "minmax": MinMaxNormalize, "robust": RobustNormalize,
	} {
		got, err := Normalize(ds, method)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		want, _ := fn(ds)
		for x := 0; x < ds.N(); x++ {
			for j := 0; j < ds.D(); j++ {
				if got.At(x, j) != want.At(x, j) {
					t.Errorf("%s: (%d,%d) = %v, want %v", method, x, j, got.At(x, j), want.At(x, j))
				}
			}
		}
	}
	if _, err := Normalize(ds, "log"); err == nil {
		t.Error("unknown normalization should error")
	}
}

func TestRobustNormalizeResistsOutliers(t *testing.T) {
	// One extreme outlier: z-scoring squashes the inliers, robust scaling
	// does not.
	rows := [][]float64{{1}, {2}, {3}, {4}, {5}, {1000}}
	ds := mustFromRows(t, rows)
	z, err := ZScoreNormalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RobustNormalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Spread of the 5 inliers after each normalization.
	spread := func(d *Dataset) float64 {
		return d.At(4, 0) - d.At(0, 0)
	}
	if spread(r) < 5*spread(z) {
		t.Errorf("robust spread %v should dwarf z-score spread %v under outliers",
			spread(r), spread(z))
	}
}

func TestRobustNormalizeConstantAndZeroMAD(t *testing.T) {
	// Constant column → zeros; zero-MAD-but-nonconstant falls back to sd.
	ds := mustFromRows(t, [][]float64{{7, 0}, {7, 0}, {7, 0}, {7, 100}})
	out, err := RobustNormalize(ds)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 0 || out.At(3, 0) != 0 {
		t.Error("constant column should be zeros")
	}
	if math.IsNaN(out.At(3, 1)) || math.IsInf(out.At(3, 1), 0) {
		t.Errorf("zero-MAD column produced %v", out.At(3, 1))
	}
	if out.At(3, 1) == 0 {
		t.Error("non-constant value should not normalize to 0 exactly")
	}
}

func TestNormalizeNil(t *testing.T) {
	if _, err := ZScoreNormalize(nil); err == nil {
		t.Error("nil should error")
	}
	if _, err := MinMaxNormalize(nil); err == nil {
		t.Error("nil should error")
	}
	if _, err := RobustNormalize(nil); err == nil {
		t.Error("nil should error")
	}
}

// Property: z-score normalization is idempotent up to floating error.
func TestZScoreIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := newTestRNG(seed)
		n, d := 3+g.Intn(20), 1+g.Intn(5)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = g.NormFloat64()*10 + 5
			}
		}
		ds, err := FromRows(rows)
		if err != nil {
			return false
		}
		once, err := ZScoreNormalize(ds)
		if err != nil {
			return false
		}
		twice, err := ZScoreNormalize(once)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < d; j++ {
				if math.Abs(once.At(i, j)-twice.At(i, j)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: min-max normalization is monotone (preserves column order).
func TestMinMaxMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := newTestRNG(seed)
		n := 3 + g.Intn(30)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = []float64{g.NormFloat64() * 50}
		}
		ds, err := FromRows(rows)
		if err != nil {
			return false
		}
		out, err := MinMaxNormalize(ds)
		if err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if ds.At(a, 0) < ds.At(b, 0) && out.At(a, 0) > out.At(b, 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
