// Package dataset provides the dense numeric matrix every algorithm in this
// repository clusters, together with cached per-dimension statistics, CSV
// I/O, and the semi-supervision inputs (labeled objects and labeled
// dimensions) defined in Section 3 of the SSPC paper.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/stats"
)

// Dataset is an n×d matrix of float64 values stored row-major in one
// contiguous slice. Objects are rows; dimensions are columns. The zero value
// is unusable: construct with New, FromRows, ReadCSV, or FromReadOnly.
//
// A Dataset built by FromReadOnly is read-only: its backing slice may alias
// a read-only file mapping (the mmap tier, binfmt.OpenBinary), so Set
// panics. Every other accessor behaves identically on both kinds.
//
// A Dataset is safe for concurrent readers (the parallel restart engine
// shares one Dataset across all workers); Set must not race with readers.
type Dataset struct {
	n, d int

	// data is the row-major backing, n*d values. readOnly marks data adopted
	// by FromReadOnly, where a store could fault the process.
	data     []float64
	readOnly bool

	// Lazily computed per-dimension statistics over all n objects, published
	// as one immutable snapshot so concurrent readers never observe a
	// half-built cache. These approximate the paper's global populations:
	// colStats.vr[j] is s²_j, the baseline for the selection thresholds
	// ŝ²_ij.
	stats atomic.Pointer[colStats]
}

// colStats is an immutable per-column statistics snapshot.
type colStats struct {
	mean, vr, mn, mx []float64
}

// New returns an n×d dataset of zeros.
func New(n, d int) (*Dataset, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("dataset: invalid shape %dx%d", n, d)
	}
	return &Dataset{n: n, d: d, data: make([]float64, n*d)}, nil
}

// FromRows builds a dataset from a slice of equal-length rows, copying the
// data. It rejects ragged input, empty input, and non-finite values.
func FromRows(rows [][]float64) (*Dataset, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, errors.New("dataset: empty input")
	}
	d := len(rows[0])
	ds, err := New(len(rows), d)
	if err != nil {
		return nil, err
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("dataset: row %d has %d values, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("dataset: non-finite value at (%d,%d)", i, j)
			}
			ds.data[i*d+j] = v
		}
	}
	return ds, nil
}

// FromReadOnly adopts data — n rows of d values, row-major — as a read-only
// dataset without copying it. It is the constructor behind the mmap storage
// tier (binfmt.OpenBinary), where data aliases a read-only file mapping: the
// returned dataset refuses Set (panic), and Clone gives a writable copy.
// Unlike FromRows it does not scan the values; callers verify them first.
func FromReadOnly(n, d int, data []float64) (*Dataset, error) {
	if n <= 0 || d <= 0 {
		return nil, fmt.Errorf("dataset: invalid shape %dx%d", n, d)
	}
	if len(data)%d != 0 || len(data)/d != n {
		return nil, fmt.Errorf("dataset: %d values do not fill a %dx%d matrix", len(data), n, d)
	}
	return &Dataset{n: n, d: d, data: data, readOnly: true}, nil
}

// N returns the number of objects (rows).
func (ds *Dataset) N() int { return ds.n }

// D returns the number of dimensions (columns).
func (ds *Dataset) D() int { return ds.d }

// At returns the value of object i on dimension j.
func (ds *Dataset) At(i, j int) float64 { return ds.data[i*ds.d+j] }

// Set assigns the value of object i on dimension j and invalidates the
// cached column statistics. Set must not be called while other goroutines
// read the dataset (mutate first, then cluster). Set panics on a read-only
// dataset (FromReadOnly), whose storage may alias a read-only file mapping;
// Clone first to get a writable copy.
func (ds *Dataset) Set(i, j int, v float64) {
	if ds.readOnly {
		panic("dataset: Set on a read-only dataset (storage may alias a read-only mapping; Clone to mutate)")
	}
	ds.data[i*ds.d+j] = v
	ds.stats.Store(nil)
}

// Row returns object i's values as a slice sharing the dataset's storage.
// Callers must not modify it; use Set for writes.
func (ds *Dataset) Row(i int) []float64 {
	return ds.data[i*ds.d : (i+1)*ds.d : (i+1)*ds.d]
}

// GatherRows copies the rows indexed by members into dst, row-major: dst row
// t holds row members[t], so the result is a dense ni×d block of the members'
// values. dst must have capacity for len(members)*D() values; the filled
// prefix is returned. GatherRows never allocates, which makes it the bulk
// accessor for evaluation hot loops: gather a cluster's members once, then
// scan dense sequential memory instead of striding through the matrix per
// element. Maximal runs of consecutive row indices collapse into a single
// copy.
func (ds *Dataset) GatherRows(members []int, dst []float64) []float64 {
	faults.MustCheck(faults.SiteShardGather)
	d := ds.d
	dst = dst[:len(members)*d]
	for t := 0; t < len(members); {
		i := members[t]
		run := t + 1
		for run < len(members) && members[run] == i+(run-t) {
			run++
		}
		copy(dst[t*d:run*d], ds.data[i*d:(i+run-t)*d])
		t = run
	}
	return dst
}

// GatherColumn copies the members' projections on dimension j into dst
// (capacity >= len(members)) and returns the filled prefix. Like GatherRows
// it never allocates.
func (ds *Dataset) GatherColumn(members []int, j int, dst []float64) []float64 {
	faults.MustCheck(faults.SiteShardGather)
	dst = dst[:len(members)]
	for t, i := range members {
		dst[t] = ds.data[i*ds.d+j]
	}
	return dst
}

// ColInto gathers dimension j into dst (len >= n) and returns dst[:n],
// avoiding an allocation on hot paths.
func (ds *Dataset) ColInto(j int, dst []float64) []float64 {
	dst = dst[:ds.n]
	for i := 0; i < ds.n; i++ {
		dst[i] = ds.data[i*ds.d+j]
	}
	return dst
}

// ensureStats returns the per-column mean/variance/min/max snapshot,
// computing it on first use. Concurrent first calls may compute it
// redundantly; the computation is deterministic, so whichever snapshot wins
// the publish is indistinguishable from the others.
//
// The Welford recurrence runs over rows in index order: the ordered serial
// reduction of the determinism contract, applied to statistics. That is why
// a dataset opened from a .sspcb file ignores the file's per-shard
// mean/variance partials (verified at open, never merged): floating-point
// addition is order-sensitive, and a pairwise merge of per-shard Welford
// states would differ in the last bits — enough to move SSPC's selection
// thresholds off the golden pins.
func (ds *Dataset) ensureStats() *colStats {
	if st := ds.stats.Load(); st != nil {
		return st
	}
	acc := stats.NewColumns(ds.d)
	for i := 0; i < ds.n; i++ {
		acc.AddRow(ds.Row(i))
	}
	st := &colStats{mean: acc.Mean, vr: acc.Variances(), mn: acc.Min, mx: acc.Max}
	ds.stats.Store(st)
	return st
}

// ColMean returns the mean of dimension j over all objects.
func (ds *Dataset) ColMean(j int) float64 { return ds.ensureStats().mean[j] }

// ColVariance returns the unbiased sample variance s²_j of dimension j over
// all objects — the paper's estimate of the global population variance σ²_j.
func (ds *Dataset) ColVariance(j int) float64 { return ds.ensureStats().vr[j] }

// ColMin returns the minimum of dimension j.
func (ds *Dataset) ColMin(j int) float64 { return ds.ensureStats().mn[j] }

// ColMax returns the maximum of dimension j.
func (ds *Dataset) ColMax(j int) float64 { return ds.ensureStats().mx[j] }

// MedianVector returns the virtual object whose projection on each dimension
// is the median of objs — the "cluster median" SSPC promotes to cluster
// representative after each iteration (§4 of the paper).
func (ds *Dataset) MedianVector(objs []int) []float64 {
	out := make([]float64, ds.d)
	buf := make([]float64, len(objs))
	for j := 0; j < ds.d; j++ {
		out[j] = stats.MedianInPlace(ds.GatherColumn(objs, j, buf))
	}
	return out
}

// MeanVector returns the centroid of objs (used by the mean-representative
// ablation).
func (ds *Dataset) MeanVector(objs []int) []float64 {
	out := make([]float64, ds.d)
	if len(objs) == 0 {
		return out
	}
	for _, i := range objs {
		row := ds.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	inv := 1 / float64(len(objs))
	for j := range out {
		out[j] *= inv
	}
	return out
}

// Clone returns a writable deep copy of the dataset on the heap: cloning a
// read-only dataset lifts the restriction. The statistics snapshot is not
// copied.
func (ds *Dataset) Clone() *Dataset {
	return &Dataset{n: ds.n, d: ds.d, data: append([]float64(nil), ds.data...)}
}

// AppendColumns returns a new dataset whose columns are this dataset's
// columns followed by other's. Both must have the same number of rows. It is
// the combinator behind the multiple-groupings experiment (paper §5.4).
func (ds *Dataset) AppendColumns(other *Dataset) (*Dataset, error) {
	if ds.n != other.n {
		return nil, fmt.Errorf("dataset: row mismatch %d vs %d", ds.n, other.n)
	}
	out, err := New(ds.n, ds.d+other.d)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ds.n; i++ {
		copy(out.data[i*out.d:], ds.Row(i))
		copy(out.data[i*out.d+ds.d:], other.Row(i))
	}
	return out, nil
}

// EuclideanSq returns the squared Euclidean distance between objects a and b
// over the given dimensions (all dimensions when dims is nil).
func (ds *Dataset) EuclideanSq(a, b int, dims []int) float64 {
	ra, rb := ds.Row(a), ds.Row(b)
	s := 0.0
	if dims == nil {
		for j := range ra {
			diff := ra[j] - rb[j]
			s += diff * diff
		}
		return s
	}
	for _, j := range dims {
		diff := ra[j] - rb[j]
		s += diff * diff
	}
	return s
}

// SegmentalDistance returns the Manhattan segmental distance of PROCLUS:
// the average absolute per-dimension difference over dims.
func (ds *Dataset) SegmentalDistance(a int, point []float64, dims []int) float64 {
	if len(dims) == 0 {
		return 0
	}
	row := ds.Row(a)
	s := 0.0
	for _, j := range dims {
		s += math.Abs(row[j] - point[j])
	}
	return s / float64(len(dims))
}
