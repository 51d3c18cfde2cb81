package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// filled returns a histogram with bins cells over [lo, hi] holding values.
func filled(t *testing.T, lo, hi float64, bins int, values ...float64) Histogram {
	t.Helper()
	h, err := NewHistogramOver(lo, hi, make([]int, bins))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		h.Add(v)
	}
	return h
}

func TestHistogramBasics(t *testing.T) {
	h := filled(t, 0, 5, 5, 0, 1, 2, 3, 4, 5, 5, 5)
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
	// The minimum and maximum of no values.
	if _, err := NewHistogramOver(Min(nil), Max(nil), make([]int, 4)); err == nil {
		t.Error("empty input should error")
	}
	if _, err := NewHistogramOver(1, 2, nil); err == nil {
		t.Error("zero bins should error")
	}
	h := filled(t, 3, 3, 4, 3, 3, 3)
	if h.Count(3) != 3 {
		t.Errorf("constant data: Count(3) = %d", h.Count(3))
	}
}

func TestHistogramDensity(t *testing.T) {
	h := filled(t, 0, 10, 2, 0, 0, 0, 10)
	if got := h.Density(0); got != 0.75 {
		t.Errorf("Density(0) = %v", got)
	}
	if got := h.Density(10); got != 0.25 {
		t.Errorf("Density(10) = %v", got)
	}
}

// TestWeightedSampleDraws pins WeightedSample's draws, and so the random
// stream it consumes, by a SHA-256 over every index it returns for a table
// of weight vectors, seeds and k: positive weights, zeros, all zeros, NaN
// and negative weights, fewer positive weights than k, k = n and k > n. One
// RNG per seed runs the whole table, so a call that consumed one more or
// one fewer value would move every later draw. After every call the
// caller's weights must be unchanged, bit for bit.
func TestWeightedSampleDraws(t *testing.T) {
	const want = "3f15e7985abe10bd78d907c4e13f2885669400ba9a1ccf7d3ab38136faed8f59"
	long := make([]float64, 100)
	for i := range long {
		if i%3 != 0 {
			long[i] = float64(i%7) * 0.37
		}
	}
	table := [][]float64{
		{1, 2, 3, 4, 5},
		{0, 1, 0, 1, 0},
		{0, 0, 0, 0},
		{5, 0, 0, 0},
		{1, 2},
		{math.NaN(), 2, -1, 3, 0},
		{1e-300, 1e300, 1e-300, 1},
		long,
	}
	h := sha256.New()
	var buf [8]byte
	for seed := int64(1); seed <= 5; seed++ {
		g := NewRNG(seed)
		for _, w := range table {
			before := make([]uint64, len(w))
			for i, v := range w {
				before[i] = math.Float64bits(v)
			}
			for _, k := range []int{1, 2, 3, len(w) - 1, len(w), len(w) + 2} {
				if k < 1 {
					continue
				}
				out := g.WeightedSample(w, k)
				binary.LittleEndian.PutUint64(buf[:], uint64(len(out)))
				h.Write(buf[:])
				for _, i := range out {
					binary.LittleEndian.PutUint64(buf[:], uint64(i))
					h.Write(buf[:])
				}
				for i, v := range w {
					if math.Float64bits(v) != before[i] {
						t.Fatalf("seed %d, k=%d: weights[%d] changed from %v to %v", seed, k, i, math.Float64frombits(before[i]), v)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("WeightedSample draw digest %s, want %s", got, want)
	}
}
