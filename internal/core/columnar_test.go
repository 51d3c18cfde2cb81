package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/synth"
)

// storageVariants returns the same matrix flat and mmap-backed (written to
// a binary file of the given shard count and reopened), so every kernel test
// runs against both storage tiers.
func storageVariants(t *testing.T, ds *dataset.Dataset, shards int) map[string]*dataset.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "variant.sspcb")
	if _, err := binfmt.WriteBinaryFile(path, ds, (ds.N()+shards-1)/shards); err != nil {
		t.Fatal(err)
	}
	fl, err := binfmt.OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return map[string]*dataset.Dataset{"flat": ds, "mmap": fl.Dataset()}
}

// TestColumnarMatchesReference is the executable form of the kernel's
// bit-identity argument: the kernel must reproduce the pre-kernel
// per-element At column scan BIT-identically for every member-list shape on
// flat and mmap-backed storage. Every selection decision matches on all d
// dimensions, and so does every φ_ij bit — except where the members' own
// sample variance is already ≥ ŝ²_ij. There Lemma 1 rejects the dimension
// whatever its median, the kernel skips the median, and φ_ij must be exactly
// −Inf. Tolerance-free on purpose: the kernel reorders memory and skips
// medians, never arithmetic.
func TestColumnarMatchesReference(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 120, D: 25, K: 3, AvgDims: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	memberSets := map[string][]int{
		"empty":     {},
		"singleton": {17},
		"pair":      {3, 99},
		"class0":    gt.MembersOfClass(0),
		"class2":    gt.MembersOfClass(2),
		"run":       {40, 41, 42, 43, 44, 45, 46, 47},
	}
	for label, ds := range storageVariants(t, gt.Data, 5) {
		thr := thresholdsFor(ds, SchemeM, 0.5)
		s := newEvalScratch(ds.D())
		buf := make([]float64, ds.N())
		for name, members := range memberSets {
			t.Run(fmt.Sprintf("%s/%s", label, name), func(t *testing.T) {
				want := evaluateDimsReference(ds, members, thr, buf, nil)
				got := evaluateDims(ds, members, thr, s)
				if len(got) != len(want) {
					t.Fatalf("len = %d, want %d", len(got), len(want))
				}
				for j := range want {
					if got[j].selected != want[j].selected {
						t.Errorf("dim %d: selected = %v, want %v", j, got[j].selected, want[j].selected)
					}
					wantPhi := want[j].phi
					if _, variance := ds.SubsetMeanVariance(members, j); len(members) > 0 && variance >= thr.value(j, len(members)) {
						wantPhi = math.Inf(-1)
					}
					if math.Float64bits(got[j].phi) != math.Float64bits(wantPhi) {
						t.Errorf("dim %d: φ_ij = %x, want %x (kernel drifted from the At scan)",
							j, math.Float64bits(got[j].phi), math.Float64bits(wantPhi))
					}
				}
			})
		}
	}
}

// TestEvalBenchLegsAgree pins the exported benchmark harness to the same
// bit-identity contract its two legs are meant to compare under.
func TestEvalBenchLegsAgree(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 90, D: 15, K: 2, AvgDims: 5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for label, ds := range storageVariants(t, gt.Data, 4) {
		eb, err := NewEvalBench(ds, DefaultOptions(2))
		if err != nil {
			t.Fatal(err)
		}
		members := gt.MembersOfClass(1)
		c, r := eb.Columnar(members), eb.Reference(members)
		if math.Float64bits(c) != math.Float64bits(r) {
			t.Errorf("%s: Columnar φ = %v, Reference φ = %v", label, c, r)
		}
	}
}

// allocFixture builds one restart's worth of assignment/evaluation state —
// clusters with ascending member lists, their thresholds, an assigner with
// Workers=1 (the kernels themselves; the parallel path adds only O(workers)
// goroutine bookkeeping per call) — and warms every lazily grown buffer.
func allocFixture(t *testing.T, ds *dataset.Dataset, k int) (*assigner, []*state, []int, *thresholds) {
	t.Helper()
	opts := DefaultOptions(k)
	opts.Workers = 1
	opts, err := opts.normalized(ds)
	if err != nil {
		t.Fatal(err)
	}
	thr := newThresholds(ds, opts)
	n, d := ds.N(), ds.D()
	clusters := make([]*state, k)
	es := newEvalScratch(d)
	for i := range clusters {
		var members []int
		for x := i; x < n; x += k {
			members = append(members, x)
		}
		dims := selectDims(ds, members, thr, es)
		if len(dims) == 0 {
			dims = []int{i % d}
		}
		clusters[i] = &state{
			dims:     dims,
			members:  members,
			prevSize: len(members),
			rep:      newRepresentative(d),
			next:     newRepresentative(d),
		}
		clusters[i].rep.setMedian(members)
	}
	assign := make([]int, n)
	par := newAssigner(n, d, k, 1)

	// Two full warm-up iterations grow the kernel scratch, the per-cluster
	// dims buffers and the representatives to their steady-state capacities.
	for warm := 0; warm < 2; warm++ {
		par.assign(context.Background(), ds, clusters, thr, assign)
		for _, st := range clusters {
			st.members = st.members[:0]
		}
		for x, c := range assign {
			if c >= 0 {
				clusters[c].members = append(clusters[c].members, x)
			}
		}
		par.evaluate(context.Background(), ds, clusters, thr)
	}
	return par, clusters, assign, thr
}

// TestAssignZeroAllocSteadyState pins the Step-3 assignment kernel at zero
// steady-state allocations on both storage layouts: the packed (dims, rep,
// ŝ²) triples and the chunk closure are reused across calls.
func TestAssignZeroAllocSteadyState(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 240, D: 30, K: 3, AvgDims: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for label, ds := range storageVariants(t, gt.Data, 4) {
		par, clusters, assign, thr := allocFixture(t, ds, 3)
		if allocs := testing.AllocsPerRun(10, func() {
			par.assign(context.Background(), ds, clusters, thr, assign)
		}); allocs != 0 {
			t.Errorf("%s: assignment kernel allocs/op = %v, want 0", label, allocs)
		}
	}
}

// TestEvaluateZeroAllocSteadyState pins the Step-4 evaluation kernel —
// Welford pass, the medians it takes, per-dimension φ_ij, dimension
// selection, seeding each cluster's next representative — at zero
// steady-state allocations on both storage layouts.
func TestEvaluateZeroAllocSteadyState(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 240, D: 30, K: 3, AvgDims: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	for label, ds := range storageVariants(t, gt.Data, 4) {
		par, clusters, _, thr := allocFixture(t, ds, 3)
		if allocs := testing.AllocsPerRun(10, func() {
			par.evaluate(context.Background(), ds, clusters, thr)
		}); allocs != 0 {
			t.Errorf("%s: evaluation kernel allocs/op = %v, want 0", label, allocs)
		}
	}
}
