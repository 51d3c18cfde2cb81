package core

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// representative is a cluster's representative (Step 6 of the paper's main
// loop). It is either an explicit vector — a seed medoid's row, or the
// members' centroid under the mean ablation — or "the median of this member
// list", whose coordinates are taken one dimension at a time on first read.
// Only a few dimensions are ever read: Step 3 reads the selected ones and
// detectBadCluster the ones two clusters share, so the lazy form skips most
// of the d medians an eager Dataset.MedianVector would take. Every
// coordinate it does take is exactly MedianVector's: the column is gathered
// in member order and handed to the same stats.MedianInPlace.
type representative struct {
	vals  []float64 // vals[j] is the coordinate on dimension j once known[j]
	known []bool
	// members is a copy of the list whose median this is, so the main loop
	// can refill its own member lists without moving the representative.
	members []int
	col     []float64 // gather scratch for one column of members
}

func newRepresentative(d int) representative {
	return representative{vals: make([]float64, d), known: make([]bool, d)}
}

// at returns the representative's coordinate on dimension j.
func (r *representative) at(ds *dataset.Dataset, j int) float64 {
	if !r.known[j] {
		r.col = growFloats(r.col, len(r.members))
		r.vals[j] = stats.MedianInPlace(ds.GatherColumn(r.members, j, r.col))
		r.known[j] = true
	}
	return r.vals[j]
}

// on takes the representative's coordinates on dims and returns them in a
// d-vector indexed by dimension. Only the entries of dims, and of dimensions
// read before, hold coordinates; a reader of the vector reads no other.
func (r *representative) on(ds *dataset.Dataset, dims []int) []float64 {
	for _, j := range dims {
		r.at(ds, j)
	}
	return r.vals
}

// vector returns the representative as a d-vector, taking every coordinate
// not known yet.
func (r *representative) vector(ds *dataset.Dataset) []float64 {
	for j := range r.vals {
		r.at(ds, j)
	}
	return r.vals
}

// setVector makes v the representative, every coordinate known. r is then
// the median of no list, so a later setMedian starts afresh.
func (r *representative) setVector(v []float64) {
	copy(r.vals, v)
	for j := range r.known {
		r.known[j] = true
	}
	r.members = r.members[:0]
}

// setMedian makes the representative the median of members. A median is a
// function of its member list, so when the list is the one r already holds,
// every coordinate taken so far stays; otherwise none is known yet. Through a
// run of restored iterations the restored lists repeat, and their medians
// are taken once.
func (r *representative) setMedian(members []int) {
	if len(r.members) > 0 && slices.Equal(r.members, members) {
		return
	}
	r.members = append(r.members[:0], members...)
	clear(r.known)
}

// seed makes the representative the median of the record's member list and
// installs every median the record's evaluation took over that list.
func (r *representative) seed(rec *evalRecord) {
	r.setMedian(rec.members)
	for _, m := range rec.medians {
		r.vals[m.dim], r.known[m.dim] = m.median, true
	}
}
