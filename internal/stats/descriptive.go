package stats

import "math"

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (the n-1 denominator
// the paper's s² uses). Slices with fewer than two elements have zero sample
// variance by convention here: a singleton cluster projection is perfectly
// concentrated.
func Variance(xs []float64) float64 {
	_, v := MeanVariance(xs)
	return v
}

// MeanVariance returns the mean and unbiased sample variance in one pass
// using Welford's algorithm for numerical stability.
func MeanVariance(xs []float64) (mean, variance float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	m := 0.0
	m2 := 0.0
	for i, x := range xs {
		delta := x - m
		m += delta / float64(i+1)
		m2 += delta * (x - m)
	}
	if n < 2 {
		return m, 0
	}
	return m, m2 / float64(n-1)
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs without modifying it, using quickselect.
// It returns NaN for an empty slice. For even lengths it returns the mean of
// the two central order statistics, matching the usual definition of the
// sample median the paper's µ̃ refers to.
func Median(xs []float64) float64 {
	return MedianInPlace(append([]float64(nil), xs...))
}

// MedianInPlace is Median but reorders xs instead of copying, for hot paths.
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return quickSelect(xs, n/2)
	}
	lo := quickSelect(xs, n/2-1)
	// After selecting k-1, element k is the min of the right partition.
	hi := Min(xs[n/2:])
	return (lo + hi) / 2
}

// quickSelect partially sorts buf so that buf[k] holds the k-th smallest
// element (0-based) and returns it. Elements left of k are <= buf[k] and
// elements right of k are >= buf[k].
func quickSelect(buf []float64, k int) float64 {
	lo, hi := 0, len(buf)-1
	for lo < hi {
		// Median-of-three pivot to dodge sorted-input pathologies.
		mid := lo + (hi-lo)/2
		if buf[mid] < buf[lo] {
			buf[mid], buf[lo] = buf[lo], buf[mid]
		}
		if buf[hi] < buf[lo] {
			buf[hi], buf[lo] = buf[lo], buf[hi]
		}
		if buf[hi] < buf[mid] {
			buf[hi], buf[mid] = buf[mid], buf[hi]
		}
		pivot := buf[mid]
		i, j := lo, hi
		for i <= j {
			for buf[i] < pivot {
				i++
			}
			for buf[j] > pivot {
				j--
			}
			if i <= j {
				buf[i], buf[j] = buf[j], buf[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return buf[k]
		}
	}
	return buf[lo]
}

// MAD returns the median absolute deviation from the median, a robust scale
// estimate: RobustNormalize scales by it, and tests of the objective
// function's robustness claims use it.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return MedianInPlace(dev)
}

// Running accumulates count, mean and M2 (sum of squared deviations) online
// via Welford's algorithm. The zero value is ready to use.
type Running struct {
	N  int
	M  float64
	M2 float64
}

// Add folds x into the accumulator.
func (r *Running) Add(x float64) {
	r.N++
	delta := x - r.M
	r.M += delta / float64(r.N)
	r.M2 += delta * (x - r.M)
}

// Mean returns the running mean (NaN when empty).
func (r *Running) Mean() float64 {
	if r.N == 0 {
		return math.NaN()
	}
	return r.M
}

// Variance returns the running unbiased sample variance.
func (r *Running) Variance() float64 {
	if r.N < 2 {
		return 0
	}
	return r.M2 / float64(r.N-1)
}

// Columns accumulates, over rows folded in order, each column's mean and M2
// by Running's Welford recurrence, and its minimum and maximum. A dataset's
// column statistics and a .sspcb file's per-shard stat partials both come
// from it, so a file's stored partials replay bit for bit.
type Columns struct {
	Rows               int
	Mean, M2, Min, Max []float64
}

// NewColumns returns an empty accumulator over d columns.
func NewColumns(d int) *Columns {
	c := &Columns{
		Mean: make([]float64, d),
		M2:   make([]float64, d),
		Min:  make([]float64, d),
		Max:  make([]float64, d),
	}
	c.Reset()
	return c
}

// Reset empties the accumulator: no rows, every mean and M2 zero, every
// minimum +Inf and every maximum −Inf.
func (c *Columns) Reset() {
	c.Rows = 0
	for j := range c.Mean {
		c.Mean[j], c.M2[j] = 0, 0
		c.Min[j], c.Max[j] = math.Inf(1), math.Inf(-1)
	}
}

// AddRow folds one row, one value per column, into the accumulator.
func (c *Columns) AddRow(row []float64) {
	c.Rows++
	cnt := float64(c.Rows)
	for j, v := range row {
		delta := v - c.Mean[j]
		c.Mean[j] += delta / cnt
		c.M2[j] += delta * (v - c.Mean[j])
		if v < c.Min[j] {
			c.Min[j] = v
		}
		if v > c.Max[j] {
			c.Max[j] = v
		}
	}
}

// Variances returns a new slice of each column's unbiased sample variance,
// M2/(Rows−1); every entry is zero when fewer than two rows were folded.
func (c *Columns) Variances() []float64 {
	vr := make([]float64, len(c.M2))
	if c.Rows > 1 {
		for j, m2 := range c.M2 {
			vr[j] = m2 / float64(c.Rows-1)
		}
	}
	return vr
}

// Merge combines another accumulator into r (parallel Welford merge).
func (r *Running) Merge(o Running) {
	if o.N == 0 {
		return
	}
	if r.N == 0 {
		*r = o
		return
	}
	n := r.N + o.N
	delta := o.M - r.M
	r.M2 += o.M2 + delta*delta*float64(r.N)*float64(o.N)/float64(n)
	r.M += delta * float64(o.N) / float64(n)
	r.N = n
}
