package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestMeanSimple(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3}, 2},
		{[]float64{5}, 5},
		{[]float64{-1, 1}, 0},
		{[]float64{2, 2, 2, 2}, 2},
	}
	for _, c := range cases {
		if got := Mean(c.xs); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestMeanEmptyIsNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
}

func TestVarianceKnown(t *testing.T) {
	// Sample variance of 2,4,4,4,5,5,7,9 is 32/7.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestVarianceDegenerate(t *testing.T) {
	if Variance(nil) != 0 {
		t.Error("Variance(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance(single) != 0")
	}
	if Variance([]float64{3, 3, 3}) != 0 {
		t.Error("Variance(constant) != 0")
	}
}

func TestVarianceShiftInvariance(t *testing.T) {
	// Welford should be stable under large offsets.
	xs := []float64{1, 2, 3, 4, 5}
	shifted := make([]float64, len(xs))
	for i, x := range xs {
		shifted[i] = x + 1e9
	}
	if got, want := Variance(shifted), Variance(xs); !almostEqual(got, want, 1e-6) {
		t.Errorf("shifted variance = %v, want %v", got, want)
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median([]float64{7}); got != 7 {
		t.Errorf("singleton median = %v, want 7", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("Median(nil) should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	Median(xs)
	want := []float64{9, 1, 5, 3, 7}
	for i := range xs {
		if xs[i] != want[i] {
			t.Fatalf("Median mutated input: %v", xs)
		}
	}
}

func TestMedianMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		got := Median(xs)
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		var want float64
		if n%2 == 1 {
			want = s[n/2]
		} else {
			want = (s[n/2-1] + s[n/2]) / 2
		}
		if !almostEqual(got, want, 1e-12) {
			t.Fatalf("trial %d: Median = %v, want %v (xs=%v)", trial, got, want, xs)
		}
	}
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median = 2, abs devs = 1,1,0,0,2,4,7 → median = 1
	if got := MAD(xs); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 100)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*5 + 3
		r.Add(xs[i])
	}
	m, v := MeanVariance(xs)
	if !almostEqual(r.Mean(), m, 1e-10) || !almostEqual(r.Variance(), v, 1e-10) {
		t.Errorf("running (%v,%v) != batch (%v,%v)", r.Mean(), r.Variance(), m, v)
	}
}

func TestRunningMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var a, b, whole Running
	for i := 0; i < 60; i++ {
		x := rng.Float64() * 100
		whole.Add(x)
		if i < 25 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if !almostEqual(a.Mean(), whole.Mean(), 1e-10) ||
		!almostEqual(a.Variance(), whole.Variance(), 1e-10) {
		t.Errorf("merge (%v,%v) != whole (%v,%v)", a.Mean(), a.Variance(), whole.Mean(), whole.Variance())
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Add(1)
	a.Add(3)
	a.Merge(b) // no-op
	if a.N != 2 || a.Mean() != 2 {
		t.Errorf("merge with empty changed state: %+v", a)
	}
	b.Merge(a)
	if b.N != 2 || b.Mean() != 2 {
		t.Errorf("empty merge with full wrong: %+v", b)
	}
}

// TestColumnsMatchesRunning: each column of a Columns accumulator holds the
// bits a Running fed the same values holds, and the column's extremes, with
// -0 and 0 kept in the order they arrive; Reset starts it over.
func TestColumnsMatchesRunning(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const rows, d = 40, 5
	c := NewColumns(d)
	for round := 0; round < 2; round++ {
		c.Reset()
		runs := make([]Running, d)
		lo, hi := make([]float64, d), make([]float64, d)
		for i := 0; i < rows; i++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(j))
			}
			row[d-1] = 0
			if i%2 == 1 {
				row[d-1] = math.Copysign(0, -1)
			}
			c.AddRow(row)
			for j, v := range row {
				runs[j].Add(v)
				if i == 0 || v < lo[j] {
					lo[j] = v
				}
				if i == 0 || v > hi[j] {
					hi[j] = v
				}
			}
		}
		vr := c.Variances()
		for j := 0; j < d; j++ {
			for name, pair := range map[string][2]float64{
				"mean": {c.Mean[j], runs[j].Mean()},
				"M2":   {c.M2[j], runs[j].M2},
				"var":  {vr[j], runs[j].Variance()},
				"min":  {c.Min[j], lo[j]},
				"max":  {c.Max[j], hi[j]},
			} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Errorf("round %d, column %d: %s = %v, want %v", round, j, name, pair[0], pair[1])
				}
			}
		}
		if c.Rows != rows {
			t.Errorf("round %d: Rows = %d, want %d", round, c.Rows, rows)
		}
	}
	one := NewColumns(2)
	one.AddRow([]float64{4, -1})
	if vr := one.Variances(); vr[0] != 0 || vr[1] != 0 {
		t.Errorf("one row: Variances = %v, want zeros", vr)
	}
}

// Property: median minimizes the sum of absolute deviations at least as well
// as the mean does (the robustness rationale behind the paper's use of µ̃).
func TestMedianMinimizesL1Property(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		med, mean := Median(xs), Mean(xs)
		l1 := func(c float64) float64 {
			s := 0.0
			for _, x := range xs {
				s += math.Abs(x - c)
			}
			return s
		}
		return l1(med) <= l1(mean)+1e-6*(1+math.Abs(l1(mean)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Variance is translation invariant and scales quadratically.
func TestVarianceScalingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		a, b := rng.NormFloat64()*3, rng.NormFloat64()*5
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = a*xs[i] + b
		}
		return almostEqual(Variance(ys), a*a*Variance(xs), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: quickSelect agrees with full sort for every rank.
func TestQuickSelectAllRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Floor(rng.Float64() * 10) // duplicates on purpose
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		for k := 0; k < n; k++ {
			buf := make([]float64, n)
			copy(buf, xs)
			if got := quickSelect(buf, k); got != s[k] {
				t.Fatalf("quickSelect(k=%d) = %v, want %v (xs=%v)", k, got, s[k], xs)
			}
		}
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max wrong: %v %v", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("empty Min/Max should be ±Inf")
	}
}
