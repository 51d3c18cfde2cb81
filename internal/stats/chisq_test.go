package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestGammaPBoundaries(t *testing.T) {
	if p, err := GammaP(2, 0); err != nil || p != 0 {
		t.Errorf("GammaP(2,0) = %v, %v", p, err)
	}
	if q, err := GammaQ(2, 0); err != nil || q != 1 {
		t.Errorf("GammaQ(2,0) = %v, %v", q, err)
	}
	if _, err := GammaP(-1, 1); err == nil {
		t.Error("GammaP should reject a <= 0")
	}
	if _, err := GammaP(1, -1); err == nil {
		t.Error("GammaP should reject x < 0")
	}
}

func TestGammaPKnownValues(t *testing.T) {
	// P(1, x) = 1 - exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		p, err := GammaP(1, x)
		if err != nil {
			t.Fatalf("GammaP(1,%v): %v", x, err)
		}
		want := 1 - math.Exp(-x)
		if !almostEqual(p, want, 1e-12) {
			t.Errorf("GammaP(1,%v) = %v, want %v", x, p, want)
		}
	}
}

func TestGammaPQComplement(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2.5, 10, 50} {
		for _, x := range []float64{0.01, 0.5, 1, 3, 10, 60} {
			p, err1 := GammaP(a, x)
			q, err2 := GammaQ(a, x)
			if err1 != nil || err2 != nil {
				t.Fatalf("errors at a=%v x=%v: %v %v", a, x, err1, err2)
			}
			if !almostEqual(p+q, 1, 1e-10) {
				t.Errorf("P+Q at a=%v x=%v = %v", a, x, p+q)
			}
		}
	}
}

func TestGammaPInvRoundTrip(t *testing.T) {
	for _, a := range []float64{0.5, 1, 2, 5, 25, 100} {
		for _, p := range []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
			x, err := GammaPInv(a, p)
			if err != nil {
				t.Fatalf("GammaPInv(%v,%v): %v", a, p, err)
			}
			back, err := GammaP(a, x)
			if err != nil {
				t.Fatalf("GammaP back: %v", err)
			}
			if !almostEqual(back, p, 1e-8) {
				t.Errorf("round trip a=%v p=%v: got %v", a, p, back)
			}
		}
	}
}

func TestChiSquareKnownQuantiles(t *testing.T) {
	// Textbook values.
	cases := []struct {
		p, nu, want float64
	}{
		{0.95, 1, 3.841},
		{0.95, 2, 5.991},
		{0.95, 10, 18.307},
		{0.99, 5, 15.086},
		{0.05, 10, 3.940},
		{0.01, 4, 0.297},
		{0.5, 2, 1.386},
	}
	for _, c := range cases {
		got, err := ChiSquareQuantile(c.p, c.nu)
		if err != nil {
			t.Fatalf("quantile(%v,%v): %v", c.p, c.nu, err)
		}
		if math.Abs(got-c.want) > 5e-3 {
			t.Errorf("ChiSquareQuantile(%v,%v) = %v, want %v", c.p, c.nu, got, c.want)
		}
	}
}

func TestChiSquareCDFQuantileRoundTrip(t *testing.T) {
	for _, nu := range []float64{1, 2, 4, 9, 29, 149} {
		for _, p := range []float64{0.01, 0.05, 0.2, 0.5, 0.8, 0.95, 0.99} {
			x, err := ChiSquareQuantile(p, nu)
			if err != nil {
				t.Fatal(err)
			}
			back, err := ChiSquareCDF(x, nu)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(back, p, 1e-8) {
				t.Errorf("nu=%v p=%v round trip -> %v", nu, p, back)
			}
		}
	}
}

func TestChiSquareCDFMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 30; x += 0.5 {
		p, err := ChiSquareCDF(x, 7)
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Fatalf("CDF not monotone at x=%v", x)
		}
		prev = p
	}
}

func TestVarianceThresholdMatchesSimulation(t *testing.T) {
	// Empirically: generate Gaussian samples with variance globalVar and
	// check the fraction with s² below the threshold is ≈ p.
	const (
		n         = 30
		globalVar = 4.0
		p         = 0.1
		trials    = 4000
	)
	thr, err := VarianceThreshold(p, globalVar, n)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	hits := 0
	xs := make([]float64, n)
	for trial := 0; trial < trials; trial++ {
		for i := range xs {
			xs[i] = rng.NormFloat64() * 2 // stddev 2 → variance 4
		}
		if Variance(xs) < thr {
			hits++
		}
	}
	got := float64(hits) / trials
	if math.Abs(got-p) > 0.02 {
		t.Errorf("empirical selection rate %v, want ≈ %v", got, p)
	}
}

func TestVarianceThresholdErrors(t *testing.T) {
	if _, err := VarianceThreshold(0.1, 1, 1); err == nil {
		t.Error("n=1 should error")
	}
	if _, err := VarianceThreshold(0, 1, 5); err == nil {
		t.Error("p=0 should error")
	}
	if _, err := VarianceThreshold(1, 1, 5); err == nil {
		t.Error("p=1 should error")
	}
}

func TestSelectionProbabilityShape(t *testing.T) {
	// For an irrelevant dimension (ratio 1) with threshold set via p, the
	// selection probability equals p.
	const p = 0.05
	n := 20
	thr, _ := VarianceThreshold(p, 1, n)
	got, err := SelectionProbability(thr, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, p, 1e-9) {
		t.Errorf("irrelevant selection prob %v, want %v", got, p)
	}
	// For a relevant dimension (ratio 0.15) the probability must be much
	// larger — this is the core asymmetry SSPC's threshold exploits.
	rel, err := SelectionProbability(thr, 0.15, n)
	if err != nil {
		t.Fatal(err)
	}
	if rel < 10*p {
		t.Errorf("relevant selection prob %v not ≫ %v", rel, p)
	}
	// And monotone: more samples → sharper separation.
	thr2, _ := VarianceThreshold(p, 1, 3*n)
	rel2, _ := SelectionProbability(thr2, 0.15, 3*n)
	if rel2 < rel {
		t.Errorf("selection prob should improve with n: %v -> %v", rel, rel2)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-6, 0.001, 0.025, 0.5, 0.8, 0.975, 0.999, 1 - 1e-6} {
		x := NormQuantile(p)
		if !almostEqual(NormCDF(x), p, 1e-9) {
			t.Errorf("NormQuantile(%v) round trip: %v", p, NormCDF(x))
		}
	}
	if !math.IsInf(NormQuantile(0), -1) || !math.IsInf(NormQuantile(1), 1) {
		t.Error("boundary quantiles should be infinite")
	}
}

func TestLnChooseAndBinomial(t *testing.T) {
	if got := Choose(5, 2); math.Abs(got-10) > 1e-9 {
		t.Errorf("C(5,2) = %v", got)
	}
	if got := Choose(10, 0); got != 1 {
		t.Errorf("C(10,0) = %v", got)
	}
	if got := Choose(4, 7); got != 0 {
		t.Errorf("C(4,7) = %v", got)
	}
	// Binomial PMF sums to 1.
	total := 0.0
	for x := 0; x <= 12; x++ {
		total += BinomialPMF(12, 0.3, x)
	}
	if !almostEqual(total, 1, 1e-10) {
		t.Errorf("binomial PMF sums to %v", total)
	}
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 1, 5) != 1 {
		t.Error("degenerate binomial PMFs wrong")
	}
}
