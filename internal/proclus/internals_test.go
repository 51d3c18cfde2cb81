package proclus

import (
	"context"
	"testing"

	"repro/internal/stats"
	"repro/internal/synth"
)

func TestGreedyPiercingSpreadsCandidates(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 400, D: 10, K: 4, AvgDims: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(4, 5)
	opts, err = opts.normalized(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	cands := greedyPiercing(gt.Data, rng, opts)
	if len(cands) != candidateFactor*4 {
		t.Fatalf("got %d candidates, want %d", len(cands), candidateFactor*4)
	}
	// No duplicates.
	seen := map[int]bool{}
	for _, c := range cands {
		if seen[c] {
			t.Fatalf("duplicate candidate %d", c)
		}
		seen[c] = true
	}
	// The max-min construction should cover all classes on full-space
	// clusters: the early candidates hit distinct classes.
	classes := map[int]bool{}
	for _, c := range cands[:4] {
		classes[gt.Labels[c]] = true
	}
	if len(classes) < 3 {
		t.Errorf("first 4 piercing candidates cover only %d classes", len(classes))
	}
}

func TestFindDimensionsPicksRelevantOnes(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 500, D: 40, K: 3, AvgDims: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3, 8)
	opts, err = opts.normalized(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	// Use true class medoid-ish objects (first member of each class).
	medoids := make([]int, 3)
	for c := 0; c < 3; c++ {
		members := gt.MembersOfClass(c)
		medoids[c] = members[len(members)/2]
	}
	dims, err := findDimensions(context.Background(), gt.Data, medoids, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The per-medoid chunked path must reproduce the serial pass exactly.
	par, err := findDimensions(context.Background(), gt.Data, medoids, opts, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !dimsEqual(dims, par) {
		t.Errorf("findDimensions workers=8 diverged from workers=1:\n  1: %v\n  8: %v", dims, par)
	}
	total := 0
	hits := 0
	for c := 0; c < 3; c++ {
		truth := map[int]bool{}
		for _, j := range gt.Dims[c] {
			truth[j] = true
		}
		for _, j := range dims[c] {
			total++
			if truth[j] {
				hits++
			}
		}
	}
	if total != 24 {
		t.Errorf("K·L budget not met: %d", total)
	}
	if frac := float64(hits) / float64(total); frac < 0.6 {
		t.Errorf("only %.2f of selected dims are truly relevant", frac)
	}
}

func dimsEqual(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for t := range a[i] {
			if a[i][t] != b[i][t] {
				return false
			}
		}
	}
	return true
}

func TestAssignPointsCostNonNegative(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 15, K: 2, AvgDims: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	medoids := []int{gt.MembersOfClass(0)[0], gt.MembersOfClass(1)[0]}
	dims := [][]int{gt.Dims[0], gt.Dims[1]}
	assign := make([]int, 200)
	cost, err := assignPoints(context.Background(), gt.Data, medoids, dims, assign, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cost < 0 {
		t.Errorf("cost = %v", cost)
	}
	for _, a := range assign {
		if a != 0 && a != 1 {
			t.Fatalf("assignment %d out of range", a)
		}
	}
	// Assigning with the true dims should cluster better than random:
	// most members of class 0 should share a side with their medoid.
	agree := 0
	for i, a := range assign {
		if (gt.Labels[i] == 0) == (a == assign[medoids[0]]) {
			agree++
		}
	}
	if frac := float64(agree) / 200; frac < 0.8 {
		t.Errorf("assignment agreement = %v", frac)
	}
}
