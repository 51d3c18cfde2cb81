package core

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/synth"
)

func generate(t *testing.T, cfg synth.Config) *synth.GroundTruth {
	t.Helper()
	gt, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

func runSSPC(t *testing.T, gt *synth.GroundTruth, opts Options) *cluster.Result {
	t.Helper()
	res, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(gt.Data.N(), gt.Data.D()); err != nil {
		t.Fatal(err)
	}
	return res
}

func ari(t *testing.T, truth, pred []int) float64 {
	t.Helper()
	v, err := eval.ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// bestOf runs SSPC several times with different seeds and returns the
// result with the best objective score — the paper's best-of-n protocol.
func bestOf(t *testing.T, gt *synth.GroundTruth, opts Options, runs int) *cluster.Result {
	t.Helper()
	var best *cluster.Result
	for r := 0; r < runs; r++ {
		opts.Seed = int64(1000 + r)
		res := runSSPC(t, gt, opts)
		if best == nil || res.Score > best.Score {
			best = res
		}
	}
	return best
}

func TestRunValidation(t *testing.T) {
	gt := generate(t, synth.Config{N: 50, D: 10, K: 2, AvgDims: 3, Seed: 1})
	if _, err := RunContext(context.Background(), nil, DefaultOptions(2)); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := RunContext(context.Background(), gt.Data, DefaultOptions(0)); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := RunContext(context.Background(), gt.Data, DefaultOptions(100)); err == nil {
		t.Error("K>n should error")
	}
	bad := DefaultOptions(2)
	bad.M = 1.5
	if _, err := RunContext(context.Background(), gt.Data, bad); err == nil {
		t.Error("m>1 should error")
	}
	bad = DefaultOptions(2)
	bad.Scheme = SchemeP
	bad.P = 0
	if _, err := RunContext(context.Background(), gt.Data, bad); err == nil {
		t.Error("p=0 should error")
	}
	kn := dataset.NewKnowledge()
	kn.LabelObject(999, 0)
	bad = DefaultOptions(2)
	bad.Knowledge = kn
	if _, err := RunContext(context.Background(), gt.Data, bad); err == nil {
		t.Error("invalid knowledge should error")
	}
}

func TestUnsupervisedModerateDims(t *testing.T) {
	// 20% relevant dims: any decent projected algorithm should do well.
	gt := generate(t, synth.Config{N: 400, D: 50, K: 4, AvgDims: 10, Seed: 2})
	res := bestOf(t, gt, DefaultOptions(4), 5)
	if got := ari(t, gt.Labels, res.Assignments); got < 0.7 {
		t.Errorf("ARI = %v on easy dataset, want >= 0.7", got)
	}
}

func TestUnsupervisedLowDims(t *testing.T) {
	// 5% relevant dims — the regime the paper targets (Fig. 3 leftmost).
	gt := generate(t, synth.Config{N: 1000, D: 100, K: 5, AvgDims: 5, Seed: 3})
	res := bestOf(t, gt, DefaultOptions(5), 8)
	if got := ari(t, gt.Labels, res.Assignments); got < 0.5 {
		t.Errorf("ARI = %v at 5%% dimensionality, want >= 0.5", got)
	}
}

func TestSchemePWorksToo(t *testing.T) {
	gt := generate(t, synth.Config{N: 400, D: 50, K: 4, AvgDims: 10, Seed: 4})
	opts := DefaultOptions(4)
	opts.Scheme = SchemeP
	opts.P = 0.1
	res := bestOf(t, gt, opts, 5)
	if got := ari(t, gt.Labels, res.Assignments); got < 0.6 {
		t.Errorf("scheme p ARI = %v, want >= 0.6", got)
	}
}

func TestDimSelectionQuality(t *testing.T) {
	gt := generate(t, synth.Config{N: 500, D: 60, K: 3, AvgDims: 9, Seed: 5})
	res := bestOf(t, gt, DefaultOptions(3), 5)
	q := eval.DimSelectionQuality(gt.Labels, res.Assignments, res.Dims, gt.Dims)
	if q.F1 < 0.6 {
		t.Errorf("dimension F1 = %v (P=%v R=%v), want >= 0.6", q.F1, q.Precision, q.Recall)
	}
}

func TestSupervisionImprovesExtremeLowDims(t *testing.T) {
	// 1% dimensionality, the paper's Fig. 5 configuration (scaled down in
	// d for test speed): raw SSPC struggles; both kinds of knowledge
	// should lift accuracy substantially.
	gt := generate(t, synth.Config{N: 150, D: 1000, K: 5, AvgDims: 10, Seed: 6})

	raw := bestOf(t, gt, DefaultOptions(5), 3)
	rawARI := ari(t, gt.Labels, raw.Assignments)

	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(5)
	opts.Knowledge = kn
	sup := bestOf(t, gt, opts, 3)

	drop := kn.LabeledObjectSet()
	ft, fp := eval.Filter(gt.Labels, sup.Assignments, drop)
	supARI := ari(t, ft, fp)

	t.Logf("raw ARI = %.3f, supervised ARI = %.3f", rawARI, supARI)
	if supARI < 0.8 {
		t.Errorf("supervised ARI = %v at 1%% dims, want >= 0.8", supARI)
	}
	if supARI < rawARI-0.05 {
		t.Errorf("supervision hurt: raw %v -> supervised %v", rawARI, supARI)
	}
}

func TestDimsOnlySupervision(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 1000, K: 5, AvgDims: 10, Seed: 8})
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.DimsOnly, Coverage: 1, Size: 3, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(5)
	opts.Knowledge = kn
	res := bestOf(t, gt, opts, 3)
	if got := ari(t, gt.Labels, res.Assignments); got < 0.7 {
		t.Errorf("dims-only ARI = %v, want >= 0.7", got)
	}
}

func TestObjectsOnlySupervision(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 500, K: 5, AvgDims: 15, Seed: 10})
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsOnly, Coverage: 1, Size: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(5)
	opts.Knowledge = kn
	res := bestOf(t, gt, opts, 3)
	drop := kn.LabeledObjectSet()
	ft, fp := eval.Filter(gt.Labels, res.Assignments, drop)
	if got := ari(t, ft, fp); got < 0.7 {
		t.Errorf("objects-only ARI = %v, want >= 0.7", got)
	}
}

func TestPartialCoverage(t *testing.T) {
	// Knowledge covering 60% of classes should still allow all clusters to
	// form via the max-min mechanism (paper Fig. 6 observation).
	gt := generate(t, synth.Config{N: 150, D: 600, K: 5, AvgDims: 12, Seed: 12})
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsAndDims, Coverage: 0.6, Size: 6, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(5)
	opts.Knowledge = kn
	res := bestOf(t, gt, opts, 3)
	drop := kn.LabeledObjectSet()
	ft, fp := eval.Filter(gt.Labels, res.Assignments, drop)
	if got := ari(t, ft, fp); got < 0.6 {
		t.Errorf("60%%-coverage ARI = %v, want >= 0.6", got)
	}
}

func TestOutlierDetection(t *testing.T) {
	gt := generate(t, synth.Config{N: 500, D: 50, K: 4, AvgDims: 10, OutlierFrac: 0.15, Seed: 14})
	res := bestOf(t, gt, DefaultOptions(4), 5)
	_, detected := res.Sizes()
	trueOutliers := gt.NumOutliers()
	// The paper reports detected amounts "highly resembling" the truth;
	// accept a factor-2 band.
	if detected < trueOutliers/2 || detected > trueOutliers*2 {
		t.Errorf("detected %d outliers, true %d", detected, trueOutliers)
	}
	// Clustering of the non-outliers should still be good.
	if got := ari(t, gt.Labels, res.Assignments); got < 0.6 {
		t.Errorf("ARI with outliers = %v, want >= 0.6", got)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	gt := generate(t, synth.Config{N: 200, D: 30, K: 3, AvgDims: 6, Seed: 15})
	opts := DefaultOptions(3)
	opts.Seed = 99
	a := runSSPC(t, gt, opts)
	b := runSSPC(t, gt, opts)
	if a.Score != b.Score {
		t.Fatalf("scores differ: %v vs %v", a.Score, b.Score)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("assignments differ for same seed")
		}
	}
}

func TestResultStructure(t *testing.T) {
	gt := generate(t, synth.Config{N: 100, D: 20, K: 3, AvgDims: 5, Seed: 16})
	res := runSSPC(t, gt, DefaultOptions(3))
	if res.K != 3 || len(res.Dims) != 3 {
		t.Errorf("K=%d dims=%d", res.K, len(res.Dims))
	}
	if !res.ScoreHigherIsBetter {
		t.Error("SSPC maximizes φ")
	}
	if res.Iterations <= 0 {
		t.Error("iterations not recorded")
	}
	if math.IsInf(res.Score, -1) {
		t.Error("score never improved past -Inf")
	}
}

func TestKEqualsOne(t *testing.T) {
	gt := generate(t, synth.Config{N: 60, D: 10, K: 1, AvgDims: 3, Seed: 17})
	res := runSSPC(t, gt, DefaultOptions(1))
	sizes, _ := res.Sizes()
	if sizes[0] == 0 {
		t.Error("single cluster empty")
	}
}

func TestMeanRepresentativeAblationRuns(t *testing.T) {
	gt := generate(t, synth.Config{N: 200, D: 30, K: 3, AvgDims: 6, Seed: 18})
	opts := DefaultOptions(3)
	opts.Representative = MeanRepresentative
	res := runSSPC(t, gt, opts)
	if err := res.Validate(200, 30); err != nil {
		t.Fatal(err)
	}
}

func TestRandomInitOrderAblationRuns(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 200, K: 4, AvgDims: 8, Seed: 19})
	kn, _ := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsAndDims, Coverage: 1, Size: 4, Seed: 20,
	})
	opts := DefaultOptions(4)
	opts.Knowledge = kn
	opts.Order = RandomOrder
	res := runSSPC(t, gt, opts)
	if err := res.Validate(150, 200); err != nil {
		t.Fatal(err)
	}
}

func TestSingleLabeledObjectPerClass(t *testing.T) {
	// |Io| = 1: the temporary cluster cannot be formed; the code must fall
	// back gracefully (single object as hill-climb start).
	gt := generate(t, synth.Config{N: 150, D: 300, K: 3, AvgDims: 9, Seed: 21})
	kn := dataset.NewKnowledge()
	for c := 0; c < 3; c++ {
		members := gt.MembersOfClass(c)
		kn.LabelObject(members[0], c)
	}
	opts := DefaultOptions(3)
	opts.Knowledge = kn
	res := runSSPC(t, gt, opts)
	if err := res.Validate(150, 300); err != nil {
		t.Fatal(err)
	}
}

func TestKnowledgeForSubsetOfClassesOnly(t *testing.T) {
	gt := generate(t, synth.Config{N: 200, D: 100, K: 4, AvgDims: 10, Seed: 22})
	kn := dataset.NewKnowledge()
	// Only class 2 gets knowledge.
	for _, obj := range gt.MembersOfClass(2)[:4] {
		kn.LabelObject(obj, 2)
	}
	for _, dim := range gt.Dims[2][:3] {
		kn.LabelDim(dim, 2)
	}
	opts := DefaultOptions(4)
	opts.Knowledge = kn
	res := runSSPC(t, gt, opts)
	// Cluster 2 should align with class 2 (private seed group is pinned to
	// the cluster index).
	var members []int
	for i, c := range res.Assignments {
		if c == 2 {
			members = append(members, i)
		}
	}
	if len(members) == 0 {
		t.Fatal("cluster 2 empty despite knowledge")
	}
	inClass := 0
	for _, obj := range members {
		if gt.Labels[obj] == 2 {
			inClass++
		}
	}
	if frac := float64(inClass) / float64(len(members)); frac < 0.5 {
		t.Errorf("cluster 2 purity vs class 2 = %v", frac)
	}
}

// TestFitAllocBound pins what one whole fit allocates, at workers 1, on two
// shapes.
//
//   - lowdim: the paper's extremely low-dimensional shape (n=150, d=3000,
//     five labeled objects and dimensions per class) allocates less than
//     n·d·8 bytes. A Step-4 evaluation that gathered each cluster's ni×d
//     member block again, a Step 6 that took every cluster's full median
//     vector, or a WeightedSample that copied its d weights for every grid
//     would cross it.
//   - paper: the §5.1 shape (n=4000, d=100, no knowledge) makes fewer than
//     2·n allocations and allocates less than 1.6·n·d·8 bytes. Seed-group
//     grids that appended each object into a per-cell slice made about
//     100k allocations, and grids that laid out every cell's members
//     allocated about 6.7 MB.
func TestFitAllocBound(t *testing.T) {
	fit := func(t *testing.T, gt *synth.GroundTruth, opts Options) (bytes, mallocs uint64) {
		t.Helper()
		opts.Seed = 1
		opts.Workers = 1
		gt.Data.ColVariance(0) // the column statistics are the dataset's, not the fit's
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		_, err := RunContext(context.Background(), gt.Data, opts)
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	t.Run("lowdim", func(t *testing.T) {
		gt := generate(t, synth.Config{N: 150, D: 3000, K: 5, AvgDims: 30, Seed: 1})
		opts := DefaultOptions(5)
		var err error
		opts.Knowledge, err = synth.SampleKnowledge(gt, synth.KnowledgeConfig{
			Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, _ := fit(t, gt, opts)
		n, d := gt.Data.N(), gt.Data.D()
		if limit := uint64(n * d * 8); got >= limit {
			t.Errorf("one fit allocated %d bytes, want < n·d·8 = %d", got, limit)
		} else {
			t.Logf("one fit allocated %.2f MB (limit %.2f MB)", float64(got)/1e6, float64(limit)/1e6)
		}
	})
	t.Run("paper", func(t *testing.T) {
		gt := generate(t, synth.Config{N: 4000, D: 100, K: 5, AvgDims: 10, Seed: 1})
		allocated, mallocs := fit(t, gt, DefaultOptions(5))
		n, d := gt.Data.N(), gt.Data.D()
		if limit := uint64(2 * n); mallocs >= limit {
			t.Errorf("one fit made %d allocations, want < 2·n = %d", mallocs, limit)
		} else {
			t.Logf("one fit made %d allocations (limit %d)", mallocs, limit)
		}
		if limit := uint64(n * d * 8); allocated >= limit {
			t.Errorf("one fit allocated %d bytes, want < n·d·8 = %d", allocated, limit)
		} else {
			t.Logf("one fit allocated %.2f MB (limit %.2f MB)", float64(allocated)/1e6, float64(limit)/1e6)
		}
	})
}

// TestFallbackGroupIgnoresMapOrder: a cluster that gets no public group takes
// the dimensions of the lowest-class private group on every call, whatever
// order the map yields its groups in.
func TestFallbackGroupIgnoresMapOrder(t *testing.T) {
	gt := generate(t, synth.Config{N: 20, D: 8, K: 2, AvgDims: 3, Seed: 1})
	private := map[int]*seedGroup{
		3: {seeds: []int{0}, dims: []int{4, 6}, class: 3},
		1: {seeds: []int{1}, dims: []int{0, 2}, class: 1},
	}
	for i := 0; i < 500; i++ {
		g := fallbackGroup(gt.Data, private, newTestRNGCore(int64(i)))
		if !reflect.DeepEqual(g.dims, []int{0, 2}) || g.class != -1 || len(g.seeds) != 1 {
			t.Fatalf("call %d: group %+v, want a singleton on class 1's dims [0 2]", i, g)
		}
	}
}
