package stats

import (
	"errors"
	"math"
)

// Histogram is a one-dimensional equi-width histogram over a fixed [Lo, Hi]
// range. SSPC uses 1-D histograms to estimate object density around a
// candidate seed when choosing grid-building dimensions for clusters with no
// input knowledge (paper §4.2.4).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram builds a histogram with bins cells over values. Values equal
// to Hi fall in the last cell. It returns an error for bins < 1 or a
// degenerate range.
func NewHistogram(values []float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	lo, hi := Min(values), Max(values)
	if math.IsInf(lo, 1) {
		return nil, errors.New("stats: histogram of empty slice")
	}
	if lo == hi {
		hi = lo + 1 // all mass in one cell; keep the width positive
	}
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins)}
	for _, v := range values {
		h.Counts[h.Bin(v)]++
		h.total++
	}
	return h, nil
}

// Bin returns the cell index for value v, clamped to [0, bins).
func (h *Histogram) Bin(v float64) int {
	bins := len(h.Counts)
	idx := int(float64(bins) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		return 0
	}
	if idx >= bins {
		return bins - 1
	}
	return idx
}

// Count returns the number of values in the cell containing v.
func (h *Histogram) Count(v float64) int { return h.Counts[h.Bin(v)] }

// PeakBin returns the index of the densest cell (ties: lowest index).
func (h *Histogram) PeakBin() int {
	best, arg := -1, 0
	for i, c := range h.Counts {
		if c > best {
			best, arg = c, i
		}
	}
	return arg
}

// Density returns the fraction of values in the cell containing v. This is
// the per-dimension density score used to weight grid-building dimensions.
func (h *Histogram) Density(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}
