package core

import (
	"math"
	"testing"

	"repro/internal/synth"
)

// Tests of the cluster-chunked Step-4 evaluation path (assigner.evaluate
// through engine.MapChunksIntoCtx): worker-count bit-identity including the
// degenerate cluster shapes, the K=1 single-chunk short-circuit, the empty
// cluster (+Inf dispersion) leg, and a -race exercise of the per-worker
// kernel scratch slots.

// evalClusters partitions the fixture's objects into k member lists:
// round-robin over the first k-1 clusters, with optional degenerate shapes
// (an empty cluster and a singleton) spliced in when k >= 3.
func evalClusters(n, k int) [][]int {
	members := make([][]int, k)
	for i := range members {
		members[i] = []int{}
	}
	live := k
	if k >= 3 {
		members[k-2] = []int{}      // stays empty: the +Inf dispersion leg
		members[k-1] = []int{n / 2} // singleton: ni-1 = 0, φ_ij = 0
		live = k - 2
	}
	for x := 0; x < n; x++ {
		if k >= 3 && x == n/2 {
			continue // owned by the singleton cluster
		}
		members[x%live] = append(members[x%live], x)
	}
	return members
}

// TestEvaluateParallelMatchesSerial: the MapChunksIntoCtx evaluation returns
// bit-identical Σ φ_i — and identical per-cluster dims and φ_i — for every
// worker count, on flat and mmap-backed storage, including empty and
// singleton clusters.
func TestEvaluateParallelMatchesSerial(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 240, D: 30, K: 3, AvgDims: 8, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	members := evalClusters(gt.Data.N(), k)
	for label, ds := range storageVariants(t, gt.Data, 4) {
		serial, err := NewParallelEvalBench(ds, DefaultOptions(k), members, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := serial.Evaluate()
		for _, workers := range []int{2, 3, 8} {
			par, err := NewParallelEvalBench(ds, DefaultOptions(k), members, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := par.Evaluate()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s workers=%d: Σφ = %x, want %x (parallel fold drifted from serial)",
					label, workers, math.Float64bits(got), math.Float64bits(want))
			}
			for i := range serial.clusters {
				s, p := serial.clusters[i], par.clusters[i]
				if math.Float64bits(s.phi) != math.Float64bits(p.phi) {
					t.Errorf("%s workers=%d cluster %d: φ_i = %v, want %v", label, workers, i, p.phi, s.phi)
				}
				if len(s.dims) != len(p.dims) {
					t.Fatalf("%s workers=%d cluster %d: dims = %v, want %v", label, workers, i, p.dims, s.dims)
				}
				for j := range s.dims {
					if s.dims[j] != p.dims[j] {
						t.Errorf("%s workers=%d cluster %d: dims = %v, want %v", label, workers, i, p.dims, s.dims)
						break
					}
				}
			}
		}
	}
}

// TestEvaluateParallelSingleCluster: K=1 takes MapChunksIntoCtx's single-chunk
// short-circuit (fn runs inline on slot 0, no fold), and still agrees
// bit-for-bit with the columnar single-cluster evaluator at every worker
// count.
func TestEvaluateParallelSingleCluster(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 120, D: 20, K: 2, AvgDims: 6, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	members := gt.MembersOfClass(0)
	eb, err := NewEvalBench(gt.Data, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	want := eb.Columnar(members)
	for _, workers := range []int{1, 8} {
		pb, err := NewParallelEvalBench(gt.Data, DefaultOptions(2), [][]int{members}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := pb.Evaluate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("workers=%d: K=1 evaluation = %v, want %v", workers, got, want)
		}
	}
}

// TestDispersionColumnEmptyIsInf pins the empty-cluster leg the chunked
// evaluation relies on: an empty column disperses to +Inf (never selected by
// Lemma 1), and a fully empty cluster evaluates to φ_ij = -Inf on every
// dimension with nothing selected and φ_i = 0.
func TestDispersionColumnEmptyIsInf(t *testing.T) {
	if got := dispersionColumn(nil); !math.IsInf(got, 1) {
		t.Errorf("dispersionColumn(nil) = %v, want +Inf", got)
	}
	if got := dispersionColumn([]float64{}); !math.IsInf(got, 1) {
		t.Errorf("dispersionColumn(empty) = %v, want +Inf", got)
	}
	gt, err := synth.Generate(synth.Config{N: 60, D: 10, K: 2, AvgDims: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	thr := thresholdsFor(gt.Data, SchemeM, 0.5)
	s := newEvalScratch(gt.Data.D())
	ev := evaluateCluster(gt.Data, nil, thr, s, nil)
	if len(ev.dims) != 0 || ev.phi != 0 {
		t.Errorf("empty cluster: dims=%v φ=%v, want none selected and φ=0", ev.dims, ev.phi)
	}
	for j, e := range evaluateDims(gt.Data, nil, thr, s) {
		if !math.IsInf(e.phi, -1) || e.selected {
			t.Errorf("empty cluster dim %d: φ_ij=%v selected=%v, want -Inf unselected", j, e.phi, e.selected)
		}
	}
}

// TestEvaluateParallelScratchRace drives the chunked evaluation with more
// clusters than workers so every scratch slot is reused across chunks within
// one call, repeatedly — the -race run in CI proves a slot is never shared
// between two live goroutines, and the result must still match serial.
func TestEvaluateParallelScratchRace(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 320, D: 24, K: 4, AvgDims: 6, Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	const k = 16
	members := evalClusters(gt.Data.N(), k)
	serial, err := NewParallelEvalBench(gt.Data, DefaultOptions(k), members, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Evaluate()
	par, err := NewParallelEvalBench(gt.Data, DefaultOptions(k), members, 8)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		if got := par.Evaluate(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round %d: Σφ = %v, want %v", round, got, want)
		}
	}
}
