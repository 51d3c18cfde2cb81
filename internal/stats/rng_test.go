package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSampleDistinctAndInRange(t *testing.T) {
	g := NewRNG(1)
	for trial := 0; trial < 100; trial++ {
		n := 1 + g.Intn(50)
		k := 1 + g.Intn(n)
		s := g.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) returned %d items", n, k, len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("out of range: %d", v)
			}
			if seen[v] {
				t.Fatalf("duplicate: %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleKGreaterThanN(t *testing.T) {
	g := NewRNG(2)
	s := g.Sample(3, 10)
	if len(s) != 3 {
		t.Fatalf("Sample(3,10) = %v", s)
	}
}

func TestSampleFrom(t *testing.T) {
	g := NewRNG(3)
	pool := []int{10, 20, 30, 40}
	s := g.SampleFrom(pool, 2)
	if len(s) != 2 {
		t.Fatalf("len = %d", len(s))
	}
	valid := map[int]bool{10: true, 20: true, 30: true, 40: true}
	for _, v := range s {
		if !valid[v] {
			t.Fatalf("value %d not in pool", v)
		}
	}
}

func TestWeightedSampleRespectsZeros(t *testing.T) {
	g := NewRNG(4)
	w := []float64{0, 1, 0, 1, 0}
	for trial := 0; trial < 200; trial++ {
		s := g.WeightedSample(w, 2)
		for _, v := range s {
			if v != 1 && v != 3 {
				t.Fatalf("picked zero-weight index %d", v)
			}
		}
	}
}

func TestWeightedSampleProportions(t *testing.T) {
	g := NewRNG(5)
	w := []float64{1, 9}
	count := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		s := g.WeightedSample(w, 1)
		if s[0] == 1 {
			count++
		}
	}
	frac := float64(count) / trials
	if math.Abs(frac-0.9) > 0.03 {
		t.Errorf("index 1 picked %.3f of the time, want ≈0.9", frac)
	}
}

func TestWeightedSampleAllZeroFallsBackUniform(t *testing.T) {
	g := NewRNG(6)
	s := g.WeightedSample([]float64{0, 0, 0, 0}, 2)
	if len(s) != 2 || s[0] == s[1] {
		t.Fatalf("fallback sample wrong: %v", s)
	}
}

func TestWeightedSampleFillsWhenWeightsExhaust(t *testing.T) {
	g := NewRNG(7)
	s := g.WeightedSample([]float64{5, 0, 0, 0}, 3)
	if len(s) != 3 {
		t.Fatalf("want 3 items, got %v", s)
	}
	seen := map[int]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatalf("duplicate in %v", s)
		}
		seen[v] = true
	}
	if !seen[0] {
		t.Errorf("positive-weight index 0 should always be included: %v", s)
	}
}

func TestWeightedSampleKGreaterThanN(t *testing.T) {
	g := NewRNG(8)
	s := g.WeightedSample([]float64{1, 2}, 5)
	if len(s) != 2 {
		t.Fatalf("got %v", s)
	}
}

func TestSplitIndependence(t *testing.T) {
	g := NewRNG(9)
	c1 := g.Split()
	// The child should be deterministic given the parent state.
	g2 := NewRNG(9)
	c2 := g2.Split()
	for i := 0; i < 10; i++ {
		if c1.Float64() != c2.Float64() {
			t.Fatal("Split not deterministic")
		}
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(10)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	g := NewRNG(11)
	var r Running
	for i := 0; i < 20000; i++ {
		r.Add(g.Norm(5, 2))
	}
	if math.Abs(r.Mean()-5) > 0.1 {
		t.Errorf("mean %v, want ≈5", r.Mean())
	}
	if math.Abs(math.Sqrt(r.Variance())-2) > 0.1 {
		t.Errorf("stddev %v, want ≈2", math.Sqrt(r.Variance()))
	}
}

func TestHistogramBasics(t *testing.T) {
	h, err := NewHistogram([]float64{0, 1, 2, 3, 4, 5, 5, 5}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if h.PeakBin() != 4 {
		t.Errorf("peak bin = %d, want 4 (three fives)", h.PeakBin())
	}
	if h.Count(5) != 4 { // 4 and the three 5s share the last bin
		t.Errorf("Count(5) = %d", h.Count(5))
	}
	if h.Bin(-100) != 0 || h.Bin(100) != 4 {
		t.Error("out-of-range values should clamp")
	}
}

func TestHistogramDegenerate(t *testing.T) {
	if _, err := NewHistogram(nil, 4); err == nil {
		t.Error("empty input should error")
	}
	if _, err := NewHistogram([]float64{1, 2}, 0); err == nil {
		t.Error("zero bins should error")
	}
	h, err := NewHistogram([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if h.Count(3) != 3 {
		t.Errorf("constant data: Count(3) = %d", h.Count(3))
	}
}

func TestHistogramDensity(t *testing.T) {
	h, _ := NewHistogram([]float64{0, 0, 0, 10}, 2)
	if got := h.Density(0); got != 0.75 {
		t.Errorf("Density(0) = %v", got)
	}
	if got := h.Density(10); got != 0.25 {
		t.Errorf("Density(10) = %v", got)
	}
}
