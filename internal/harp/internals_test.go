package harp

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/synth"
)

func TestMergedRelevanceMatchesDirectComputation(t *testing.T) {
	// The O(d) merged-variance evaluation must agree with recomputing the
	// merged cluster's variance from scratch.
	gt, err := synth.Generate(synth.Config{N: 100, D: 10, K: 2, AvgDims: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds := gt.Data
	membersA := []int{0, 1, 2, 3, 4}
	membersB := []int{5, 6, 7, 8}

	build := func(members []int) *node {
		st := make([]stats.Running, ds.D())
		for _, i := range members {
			row := ds.Row(i)
			for j := 0; j < ds.D(); j++ {
				st[j].Add(row[j])
			}
		}
		return &node{members: members, stats: st, active: true}
	}
	a, b := build(membersA), build(membersB)
	merged := append(append([]int(nil), membersA...), membersB...)

	for j := 0; j < ds.D(); j++ {
		mergedStat := a.stats[j]
		mergedStat.Merge(b.stats[j])
		var r stats.Running
		for _, v := range ds.GatherColumn(merged, j, make([]float64, len(merged))) {
			r.Add(v)
		}
		direct := r.Variance()
		if math.Abs(mergedStat.Variance()-direct) > 1e-9*(1+direct) {
			t.Errorf("dim %d: merged variance %v, direct %v", j, mergedStat.Variance(), direct)
		}
	}
}

func TestThresholdScheduleShape(t *testing.T) {
	// The loosening schedule: dmin falls quadratically, rmin as sqrt — so
	// early levels keep high relevance demands while the dimension-count
	// demand relaxes quickly.
	opts := DefaultOptions(3)
	d := 100
	prevR := math.Inf(1)
	prevD := math.MaxInt32
	for level := 0; level < opts.Levels; level++ {
		frac := float64(level) / float64(opts.Levels-1)
		rmin := opts.RMax * math.Sqrt(1-frac)
		dmin := int(math.Round(float64(d) * (1 - frac) * (1 - frac)))
		if dmin < 1 {
			dmin = 1
		}
		if rmin > prevR || dmin > prevD {
			t.Fatalf("schedule not monotone at level %d", level)
		}
		prevR, prevD = rmin, dmin
	}
}
