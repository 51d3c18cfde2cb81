package core

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

func setupInit(t *testing.T, gt *synth.GroundTruth, kn *dataset.Knowledge, seed int64) (*initializer, Options) {
	t.Helper()
	opts := DefaultOptions(gt.Config.K)
	opts.Knowledge = kn
	opts.Seed = seed
	opts, err := opts.normalized(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	return newInitializer(context.Background(), gt.Data, opts, newThresholds(gt.Data, opts),
		newTestRNGCore(seed), slotScratch(gt.Data.D(), 1)), opts
}

// slotScratch returns kernel scratch for the given number of worker slots.
func slotScratch(d, slots int) []*evalScratch {
	out := make([]*evalScratch, slots)
	for w := range out {
		out[w] = newEvalScratch(d)
	}
	return out
}

func TestOrderedClassesCategoryOrder(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 100, D: 50, K: 4, AvgDims: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	kn := dataset.NewKnowledge()
	// class 0: dims only. class 1: both. class 2: objects only. class 3: none.
	kn.LabelDim(gt.Dims[0][0], 0)
	kn.LabelObject(gt.MembersOfClass(1)[0], 1)
	kn.LabelObject(gt.MembersOfClass(1)[1], 1)
	kn.LabelDim(gt.Dims[1][0], 1)
	kn.LabelObject(gt.MembersOfClass(2)[0], 2)
	init, _ := setupInit(t, gt, kn, 2)
	order := init.orderedClasses()
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 classes", order)
	}
	if order[0] != 1 { // both kinds first
		t.Errorf("class with both inputs should come first: %v", order)
	}
	if order[1] != 2 { // objects only second
		t.Errorf("objects-only class second: %v", order)
	}
	if order[2] != 0 { // dims only third
		t.Errorf("dims-only class third: %v", order)
	}
}

func TestOrderedClassesSizeWithinCategory(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 100, D: 50, K: 3, AvgDims: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	kn := dataset.NewKnowledge()
	// Both classes objects-only; class 1 has more inputs.
	kn.LabelObject(gt.MembersOfClass(0)[0], 0)
	for _, o := range gt.MembersOfClass(1)[:3] {
		kn.LabelObject(o, 1)
	}
	init, _ := setupInit(t, gt, kn, 4)
	order := init.orderedClasses()
	if order[0] != 1 {
		t.Errorf("larger input should be initialized first: %v", order)
	}
}

func TestCreatePrivateDimsOnlyUsesAbsolutePeak(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 100, K: 3, AvgDims: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kn := dataset.NewKnowledge()
	for _, j := range gt.Dims[0][:4] {
		kn.LabelDim(j, 0)
	}
	init, _ := setupInit(t, gt, kn, 6)
	g, err := init.createPrivate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.seeds) == 0 {
		t.Fatal("no seeds")
	}
	pure := 0
	for _, s := range g.seeds {
		if gt.Labels[s] == 0 {
			pure++
		}
	}
	if frac := float64(pure) / float64(len(g.seeds)); frac < 0.6 {
		t.Errorf("dims-only seed purity %v", frac)
	}
	// Labeled dims must be included in the group dims.
	dimSet := map[int]bool{}
	for _, j := range g.dims {
		dimSet[j] = true
	}
	for _, j := range gt.Dims[0][:4] {
		if !dimSet[j] {
			t.Errorf("labeled dim %d missing from group dims", j)
		}
	}
}

func TestExclusionReducesPool(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 60, K: 3, AvgDims: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kn := dataset.NewKnowledge()
	for _, o := range gt.MembersOfClass(0)[:4] {
		kn.LabelObject(o, 0)
	}
	for _, j := range gt.Dims[0][:4] {
		kn.LabelDim(j, 0)
	}
	init, _ := setupInit(t, gt, kn, 8)
	g, err := init.createPrivate(0)
	if err != nil {
		t.Fatal(err)
	}
	init.adopt(g)
	if init.nExcluded == 0 {
		t.Error("adopt should exclude likely members of the created group")
	}
	// Excluded objects should be mostly class 0.
	inClass := 0
	for i, ex := range init.excluded {
		if ex && gt.Labels[i] == 0 {
			inClass++
		}
	}
	if frac := float64(inClass) / float64(init.nExcluded); frac < 0.7 {
		t.Errorf("excluded objects only %v class-0", frac)
	}
	// And the exclusion respects the 10% floor.
	if gt.Data.N()-init.nExcluded < gt.Data.N()/10 {
		t.Error("exclusion went below the 10% floor")
	}
}

func TestMaxMinAvoidsExistingGroups(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 60, K: 3, AvgDims: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	kn := dataset.NewKnowledge()
	for _, o := range gt.MembersOfClass(0)[:4] {
		kn.LabelObject(o, 0)
	}
	init, _ := setupInit(t, gt, kn, 10)
	g, err := init.createPrivate(0)
	if err != nil {
		t.Fatal(err)
	}
	init.adopt(g)
	obj, err := init.maxMinObject()
	if err != nil {
		t.Fatal(err)
	}
	if gt.Labels[obj] == 0 {
		t.Error("max-min picked an object from the already-covered class")
	}
}

func TestCreatePublicWithoutAnyKnowledge(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 60, K: 3, AvgDims: 10, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	init, _ := setupInit(t, gt, nil, 12)
	g, err := init.createPublic()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.seeds) == 0 || len(g.dims) == 0 {
		t.Fatalf("public group degenerate: %d seeds, %d dims", len(g.seeds), len(g.dims))
	}
	if g.class != -1 {
		t.Errorf("public group class = %d, want -1", g.class)
	}
}

func TestInitializeAllPrivateStillMakesSpares(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 100, K: 3, AvgDims: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	kn := dataset.NewKnowledge()
	for c := 0; c < 3; c++ {
		for _, o := range gt.MembersOfClass(c)[:3] {
			kn.LabelObject(o, c)
		}
	}
	_, opts := setupInit(t, gt, kn, 14)
	private, public, err := initialize(context.Background(), gt.Data, opts, newThresholds(gt.Data, opts),
		newTestRNGCore(14), slotScratch(gt.Data.D(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(private) != 3 {
		t.Errorf("private groups = %d, want 3", len(private))
	}
	if len(public) == 0 {
		t.Error("expected spare public groups for bad-cluster replacement")
	}
}

func TestUnionSortedAndHelpers(t *testing.T) {
	got := unionSorted([]int{3, 1}, []int{2, 3, 5})
	want := []int{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("unionSorted = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("unionSorted = %v, want %v", got, want)
		}
	}
	if got := unionSorted(nil, nil); len(got) != 0 {
		t.Errorf("unionSorted(nil,nil) = %v", got)
	}

	top := topWeighted([]int{10, 20, 30}, []float64{0.5, 2.0, 1.0}, 2)
	sort.Ints(top)
	if len(top) != 2 || top[0] != 20 || top[1] != 30 {
		t.Errorf("topWeighted = %v", top)
	}
	if got := topWeighted([]int{1}, []float64{1}, 5); len(got) != 1 {
		t.Errorf("topWeighted overflow = %v", got)
	}

	inter := intersectSorted([]int{1, 3, 5, 7}, []int{3, 4, 5, 8})
	if len(inter) != 2 || inter[0] != 3 || inter[1] != 5 {
		t.Errorf("intersectSorted = %v", inter)
	}
}

func TestDrawMedoidFromSeeds(t *testing.T) {
	g := &seedGroup{seeds: []int{4, 9, 12}}
	rng := newTestRNGCore(15)
	for i := 0; i < 20; i++ {
		m := g.drawMedoid(rng)
		if m != 4 && m != 9 && m != 12 {
			t.Fatalf("drawMedoid returned non-seed %d", m)
		}
	}
}

func TestGatherFindsClusterMembers(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 400, D: 50, K: 4, AvgDims: 10, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	init, _ := setupInit(t, gt, nil, 17)
	members := gt.MembersOfClass(1)
	seed := members[:5]
	grown := init.gather(seed, gt.Dims[1])
	if len(grown) < len(members)/2 {
		t.Errorf("gather found %d of %d members", len(grown), len(members))
	}
	inClass := 0
	for _, o := range grown {
		if gt.Labels[o] == 1 {
			inClass++
		}
	}
	if frac := float64(inClass) / float64(len(grown)); frac < 0.9 {
		t.Errorf("gather purity %v", frac)
	}
}

// TestPrivateCandidatesConstantLabeledDim: a labeled dimension that the
// temporary cluster C' rejects gets the competitive weight max(maxφ, 1),
// never its own φ_ij. On a constant column ŝ² = 0, and the At scan's φ_ij is
// 0/0 = NaN. WeightedSample never draws a NaN weight, so the labeled
// dimension would drop out of every seed grid. Both evaluators feed the
// check: the kernel skips that median (φ_ij = −Inf), the At scan does not.
func TestPrivateCandidatesConstantLabeledDim(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 100, D: 10, K: 2, AvgDims: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const flat = 3
	ds := gt.Data.Clone()
	for i := 0; i < ds.N(); i++ {
		ds.Set(i, flat, 0.25)
	}
	io := gt.MembersOfClass(0)[:5]
	iv := []int{flat}
	thr := newThresholds(ds, DefaultOptions(2))
	legs := map[string][]dimEval{
		"kernel":    evaluateDims(ds, io, thr, newEvalScratch(ds.D())),
		"reference": evaluateDimsReference(ds, io, thr, make([]float64, len(io)), nil),
	}
	if phi := legs["reference"][flat].phi; !math.IsNaN(phi) {
		t.Fatalf("fixture: At-scan φ_ij on the constant column = %v, want NaN", phi)
	}
	for name, evals := range legs {
		want := 1.0
		for _, e := range evals {
			if e.selected && e.phi > want {
				want = e.phi
			}
		}
		cands, weights := privateCandidates(evals, iv)
		found := false
		for u, j := range cands {
			if w := weights[u]; math.IsNaN(w) || w <= 0 {
				t.Errorf("%s: candidate dim %d has weight %v", name, j, w)
			}
			if j == flat {
				found = true
				if weights[u] != want {
					t.Errorf("%s: constant labeled dim weight = %v, want max(maxφ, 1) = %v", name, weights[u], want)
				}
			}
		}
		if !found {
			t.Errorf("%s: labeled dim %d missing from candidates %v", name, flat, cands)
		}
	}
}
