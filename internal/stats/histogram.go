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

// NewHistogramOver returns an empty histogram over [lo, hi] whose cells are
// counts, one cell per element, all zero; the histogram keeps counts as its
// storage, so a caller can back many histograms with one array. Fill it one
// value at a time with Add. Values are binned against the range, so the
// usual range is the values' minimum and maximum, with values equal to Hi in
// the last cell. lo == hi puts all mass in one cell. lo = +Inf — the minimum
// of no values — is an error, as are empty counts.
func NewHistogramOver(lo, hi float64, counts []int) (Histogram, error) {
	if len(counts) < 1 {
		return Histogram{}, errors.New("stats: histogram needs at least one bin")
	}
	if math.IsInf(lo, 1) {
		return Histogram{}, errors.New("stats: histogram of empty slice")
	}
	if lo == hi {
		hi = lo + 1 // all mass in one cell; keep the width positive
	}
	return Histogram{Lo: lo, Hi: hi, Counts: counts}, nil
}

// Add counts v in its cell.
func (h *Histogram) Add(v float64) {
	h.Counts[h.Bin(v)]++
	h.total++
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
