// Package stats provides the numerical substrate used across the
// repository: descriptive statistics, the chi-square distribution (needed by
// SSPC's probabilistic dimension-selection threshold), deterministic random
// number generation, and simple histograms.
//
// Everything is implemented on top of the standard library only.
package stats

import "math/rand"

// RNG is a deterministic random source shared by the generators and the
// randomized algorithms. It wraps math/rand.Rand so that every experiment in
// the repository can be reproduced from a single integer seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a uniform value in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Uniform returns a uniform value in [lo,hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Norm returns a Gaussian value with the given mean and standard deviation.
func (g *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*g.r.NormFloat64()
}

// Intn returns a uniform integer in [0,n). It panics if n <= 0, mirroring
// math/rand.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle shuffles the integers in s in place.
func (g *RNG) Shuffle(s []int) {
	g.r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// Sample returns k distinct integers drawn uniformly from [0,n) in random
// order. If k >= n it returns a permutation of [0,n).
func (g *RNG) Sample(n, k int) []int {
	if k >= n {
		return g.Perm(n)
	}
	// Floyd's algorithm: O(k) expected work, no O(n) allocation.
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := g.r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	g.Shuffle(out)
	return out
}

// SampleFrom returns k distinct elements drawn uniformly from pool.
func (g *RNG) SampleFrom(pool []int, k int) []int {
	idx := g.Sample(len(pool), min(k, len(pool)))
	out := make([]int, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// WeightedSample draws k distinct indices from [0,len(weights)) where each
// index is chosen with probability proportional to its (non-negative)
// weight. Zero-weight entries are never chosen unless all weights are zero,
// in which case the draw degenerates to uniform. If fewer than k indices
// have positive weight, the positive-weight ones are returned first and the
// remainder filled uniformly from the rest. It only reads weights: a drawn
// index is skipped by its taken flag, not by zeroing its weight.
func (g *RNG) WeightedSample(weights []float64, k int) []int {
	n := len(weights)
	if k >= n {
		return g.Perm(n)
	}
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return g.Sample(n, k)
	}
	remaining := total
	out := make([]int, 0, k)
	taken := make([]bool, n)
	for len(out) < k {
		if remaining <= 0 {
			// Exhausted positive weights; fill uniformly.
			rest := make([]int, 0, n-len(out))
			for i := 0; i < n; i++ {
				if !taken[i] {
					rest = append(rest, i)
				}
			}
			out = append(out, g.SampleFrom(rest, k-len(out))...)
			break
		}
		target := g.r.Float64() * remaining
		acc := 0.0
		pick := -1
		for i := 0; i < n; i++ {
			if taken[i] || weights[i] <= 0 {
				continue
			}
			acc += weights[i]
			if acc >= target {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Numerical slack: pick the last untaken positive weight.
			for i := n - 1; i >= 0; i-- {
				if !taken[i] && weights[i] > 0 {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			remaining = 0
			continue
		}
		taken[pick] = true
		remaining -= weights[pick]
		out = append(out, pick)
	}
	return out
}
