package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(append([]float64(nil), xs...), c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile(empty) = %v, want NaN", got)
	}
}

func TestMedianKeepsOrder(t *testing.T) {
	xs := []float64{3, 1, 4, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 3 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if got := median([]float64{5, math.Inf(1), 1}); got != 5 {
		t.Errorf("median with a failed (+Inf) sample = %v, want 5", got)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs (Python refuses a single sample; quartiles
// returns it).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {20, 50}, {72, 6200.0 / 72}, {100, 90}, {1000, 99}, {8000, 99.875},
	} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Exactly ten samples lie strictly above the reported percentile's
	// nearest-rank sample.
	for n := 11; n <= 20000; n += 37 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if beyond := n - 1 - int(percentile(xs, tailPercentile(n))); beyond != 10 {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, tailPercentile(n), beyond)
		}
	}
}
