package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/synth"
)

// TestRepresentativeMatchesMedianVector: the lazy representative returns
// Dataset.MedianVector(members) bit for bit on every dimension, on flat and
// mmap storage, in every state the main loop can leave it in: starting
// empty (a restore), seeded with the medians a Step-4 evaluation of the same
// members took (an improving iteration), set again to the list it already
// holds (a run of restores), moved from a different list, and restored to
// its list after a medoid replaced it (a bad cluster). Each leg reads
// the dimensions in a scrambled order, so a coordinate taken on first read
// cannot depend on which coordinates came before it.
func TestRepresentativeMatchesMedianVector(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 160, D: 40, K: 3, AvgDims: 6, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	memberSets := map[string][]int{
		"singleton": {17},
		"pair":      {3, 99},
		"class0":    gt.MembersOfClass(0),
		"class2":    gt.MembersOfClass(2),
		"run":       {40, 41, 42, 43, 44, 45, 46, 47},
	}
	mixed := false // some leg starts with a mix of taken and untaken medians
	for label, ds := range storageVariants(t, gt.Data, 5) {
		d := ds.D()
		thr := thresholdsFor(ds, SchemeM, 0.5)
		s := newEvalScratch(d)
		readAll := func(r *representative) []float64 {
			out := make([]float64, d)
			for k := 0; k < d; k++ {
				j := (k * 7) % d
				out[j] = r.at(ds, j)
			}
			return out
		}
		for name, members := range memberSets {
			want := ds.MedianVector(members)
			evals := evaluateDims(ds, members, thr, s)
			seeded := 0
			for _, e := range evals {
				if e.hasMedian {
					seeded++
				}
			}
			if seeded > 0 && seeded < d {
				mixed = true
			}
			other := members[:len(members)-1] // a prefix: same start, other list
			if len(members) == 1 {
				other = []int{members[0] + 1}
			}
			legs := map[string]func(r *representative){
				"empty":  func(r *representative) { r.setMedian(members) },
				"seeded": func(r *representative) { r.seed(members, evals) },
				"kept": func(r *representative) {
					r.seed(members, evals)
					r.at(ds, 0)
					r.setMedian(members)
				},
				"moved": func(r *representative) {
					r.setMedian(other)
					readAll(r)
					r.setMedian(members)
				},
				"after-medoid": func(r *representative) {
					r.setMedian(members)
					r.setVector(ds.Row(1))
					r.setMedian(members)
				},
			}
			for leg, prepare := range legs {
				t.Run(fmt.Sprintf("%s/%s/%s", label, name, leg), func(t *testing.T) {
					r := newRepresentative(d)
					r.setVector(ds.Row(0)) // a stale vector the median must replace
					prepare(&r)
					for j, got := range readAll(&r) {
						if math.Float64bits(got) != math.Float64bits(want[j]) {
							t.Errorf("dim %d: at = %x, want MedianVector's %x", j, math.Float64bits(got), math.Float64bits(want[j]))
						}
					}
				})
			}
		}
	}
	if !mixed {
		t.Error("no member set left some medians untaken; the seeded legs never read a lazy coordinate")
	}
}
