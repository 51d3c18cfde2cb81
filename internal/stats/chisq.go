package stats

import (
	"errors"
	"math"
)

// Chi-square distribution with ν degrees of freedom. SSPC's threshold scheme
// "p" relies on the sampling distribution of the normalized sample variance:
// (n_i−1)·s²_ij/σ²_j ~ χ²(n_i−1) when the projections are a random sample of
// a Gaussian global population (paper §4.1). The quantile below turns a
// user-supplied false-selection probability p into the variance threshold
// ŝ²_ij.

// ChiSquareCDF returns P(X <= x) for X ~ χ²(ν).
func ChiSquareCDF(x float64, nu float64) (float64, error) {
	if nu <= 0 {
		return math.NaN(), errors.New("stats: chi-square needs nu > 0")
	}
	if x <= 0 {
		return 0, nil
	}
	return GammaP(nu/2, x/2)
}

// ChiSquareQuantile returns x such that P(X <= x) = p for X ~ χ²(ν).
func ChiSquareQuantile(p float64, nu float64) (float64, error) {
	if nu <= 0 {
		return math.NaN(), errors.New("stats: chi-square needs nu > 0")
	}
	g, err := GammaPInv(nu/2, p)
	if err != nil {
		return math.NaN(), err
	}
	return 2 * g, nil
}

// VarianceThreshold returns the value t such that a sample variance of nu+1
// Gaussian observations with population variance globalVar satisfies
// P(s² < t) = p. It is the paper's ŝ²_ij for threshold scheme "p":
//
//	ŝ² = σ² · χ²_inv(p, n−1) / (n−1)
//
// where σ² is approximated by the global sample variance. n must be >= 2.
func VarianceThreshold(p, globalVar float64, n int) (float64, error) {
	if n < 2 {
		return math.NaN(), errors.New("stats: VarianceThreshold needs n >= 2")
	}
	if p <= 0 || p >= 1 {
		return math.NaN(), errors.New("stats: VarianceThreshold needs 0 < p < 1")
	}
	nu := float64(n - 1)
	q, err := ChiSquareQuantile(p, nu)
	if err != nil {
		return math.NaN(), err
	}
	return globalVar * q / nu, nil
}

// SelectionProbability returns P(s²_local < threshold·σ²_global) where the
// local sample of size n comes from a Gaussian whose variance is
// varianceRatio·σ²_global, and threshold is expressed as a fraction of the
// global variance. It is the building block of the Figure 1/2 analysis: for
// an irrelevant dimension varianceRatio = 1 and the result is (approximately)
// the user parameter p by construction; for a relevant dimension the ratio is
// small (0.15 in the paper's example) and the probability is near 1.
func SelectionProbability(thresholdFrac, varianceRatio float64, n int) (float64, error) {
	if n < 2 {
		return 0, errors.New("stats: SelectionProbability needs n >= 2")
	}
	if varianceRatio <= 0 {
		return 1, nil
	}
	nu := float64(n - 1)
	// s² < f·σ²  ⇔  (n−1)s²/σ²_local < f·(n−1)/ratio, which is χ²(n−1).
	return ChiSquareCDF(thresholdFrac*nu/varianceRatio, nu)
}
