package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// Tests of the cluster-chunked Step-4 evaluation path (assigner.evaluate
// through engine.ParallelChunksCtx, with the φ_i slots summed in cluster
// order after the call): worker-count bit-identity including the degenerate
// cluster shapes, the K=1 single-chunk case, the empty cluster (+Inf
// dispersion) leg, and a -race exercise of the per-worker kernel scratch
// slots.

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

// TestEvaluateParallelMatchesSerial: the chunked evaluation returns
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

// TestEvaluateParallelSingleCluster: K=1 is a single chunk (it runs inline
// on slot 0, and the sum adds one φ_i to 0.0), and still agrees bit-for-bit
// with the columnar single-cluster evaluator at every worker count.
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

// TestEvaluateSumsInClusterOrder: Σφ is the per-cluster φ_i added in
// ascending cluster index, at every worker count. On this fixture the
// descending sum differs in the last bit, so a sum in any other order fails.
func TestEvaluateSumsInClusterOrder(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 240, D: 20, K: 6, AvgDims: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	members := make([][]int, 6)
	for c := range members {
		members[c] = gt.MembersOfClass(c)
	}
	for _, workers := range []int{1, 4} {
		pb, err := NewParallelEvalBench(gt.Data, DefaultOptions(6), members, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := pb.Evaluate()
		asc, desc := 0.0, 0.0
		for i := range pb.clusters {
			asc += pb.clusters[i].phi
			desc += pb.clusters[len(pb.clusters)-1-i].phi
		}
		if asc == desc {
			t.Fatal("fixture sums to the same bits in both orders; it cannot tell them apart")
		}
		if math.Float64bits(got) != math.Float64bits(asc) {
			t.Errorf("workers=%d: Σφ = %x, want the ascending-cluster sum %x", workers, math.Float64bits(got), math.Float64bits(asc))
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
	var ev evalRecord
	ev.evaluate(gt.Data, nil, thr, s)
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

// TestEvalRecordHitMatchesFresh: when a cluster's member list repeats its
// last evaluated one, Step 4 reuses the evaluation record, and the outcome
// equals a fresh evaluation of the same lists bit for bit: every cluster's
// selected dims and φ_i, Σφ, and every coordinate the representative Step 6
// seeds from the record holds (known flag and value) and then returns. The
// repeat follows a plain iteration, a restore (dims, φ_i and the
// representative moved to a best-so-far state), and a bad-cluster
// replacement (a medoid representative on a seed group's dims), at workers
// 1 and 4, on flat and mmap storage, including an empty and a singleton
// cluster.
func TestEvalRecordHitMatchesFresh(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 240, D: 30, K: 3, AvgDims: 8, Seed: 25})
	if err != nil {
		t.Fatal(err)
	}
	const k = 5
	members := evalClusters(gt.Data.N(), k)
	other := evalClusters(gt.Data.N()-7, k) // a different best-so-far partition
	legs := map[string]func(ds *dataset.Dataset, i int, st *state){
		"repeat": func(*dataset.Dataset, int, *state) {},
		"restore": func(_ *dataset.Dataset, i int, st *state) {
			st.dims = append(st.dims[:0], i, i+2)
			st.phi = -1
			st.rep.setMedian(other[i])
		},
		"replacement": func(ds *dataset.Dataset, i int, st *state) {
			st.rep.setVector(ds.Row(i))
			st.dims = append(st.dims[:0], 2*i+1)
		},
	}
	newClusters := func(d int) []*state {
		clusters := make([]*state, k)
		for i := range clusters {
			clusters[i] = &state{members: members[i], dims: []int{i}, rep: newRepresentative(d)}
		}
		return clusters
	}
	for label, ds := range storageVariants(t, gt.Data, 4) {
		d := ds.D()
		thr := thresholdsFor(ds, SchemeM, 0.5)
		for _, workers := range []int{1, 4} {
			fresh := newClusters(d)
			want, err := newAssigner(d, k, workers).evaluate(context.Background(), ds, fresh, thr)
			if err != nil {
				t.Fatal(err)
			}
			for leg, perturb := range legs {
				name := fmt.Sprintf("%s/workers=%d/%s", label, workers, leg)
				par := newAssigner(d, k, workers)
				clusters := newClusters(d)
				if _, err := par.evaluate(context.Background(), ds, clusters, thr); err != nil {
					t.Fatal(err)
				}
				for i, st := range clusters {
					perturb(ds, i, st)
					if !st.last.valid || !slices.Equal(st.last.members, members[i]) {
						t.Fatalf("%s cluster %d: the record does not hold the repeated list", name, i)
					}
				}
				got, err := par.evaluate(context.Background(), ds, clusters, thr)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: Σφ = %x, want the fresh %x", name, math.Float64bits(got), math.Float64bits(want))
				}
				for i, st := range clusters {
					f := fresh[i]
					if !slices.Equal(st.dims, f.dims) || math.Float64bits(st.phi) != math.Float64bits(f.phi) {
						t.Errorf("%s cluster %d: dims %v φ_i %x, want %v %x", name, i, st.dims, math.Float64bits(st.phi), f.dims, math.Float64bits(f.phi))
					}
					r, fr := newRepresentative(d), newRepresentative(d)
					r.seed(&st.last)
					fr.seed(&f.last)
					for j := 0; j < d; j++ {
						if r.known[j] != fr.known[j] || (r.known[j] && math.Float64bits(r.vals[j]) != math.Float64bits(fr.vals[j])) {
							t.Errorf("%s cluster %d dim %d: seeded (%v, %v), want (%v, %v)", name, i, j, r.known[j], r.vals[j], fr.known[j], fr.vals[j])
						}
					}
					if len(members[i]) == 0 {
						continue
					}
					for j, v := range ds.MedianVector(members[i]) {
						if got := r.at(ds, j); math.Float64bits(got) != math.Float64bits(v) {
							t.Errorf("%s cluster %d dim %d: median %x, want %x", name, i, j, math.Float64bits(got), math.Float64bits(v))
						}
					}
				}
			}
		}
	}
}
