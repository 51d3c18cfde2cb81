package synth

import (
	"math"
	"testing"

	"repro/internal/stats"
)

func TestGenerateShapeAndLabels(t *testing.T) {
	gt, err := Generate(Config{N: 200, D: 30, K: 4, AvgDims: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if gt.Data.N() != 200 || gt.Data.D() != 30 {
		t.Fatalf("shape %dx%d", gt.Data.N(), gt.Data.D())
	}
	if len(gt.Labels) != 200 {
		t.Fatalf("labels len %d", len(gt.Labels))
	}
	counts := map[int]int{}
	for _, l := range gt.Labels {
		if l < -1 || l >= 4 {
			t.Fatalf("label %d out of range", l)
		}
		counts[l]++
	}
	for c := 0; c < 4; c++ {
		if counts[c] == 0 {
			t.Errorf("class %d empty", c)
		}
	}
	if gt.NumOutliers() != 0 {
		t.Errorf("unexpected outliers: %d", gt.NumOutliers())
	}
}

func TestGenerateDimsPerClass(t *testing.T) {
	gt, err := Generate(Config{N: 100, D: 50, K: 3, AvgDims: 7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for c, dims := range gt.Dims {
		if len(dims) != 7 {
			t.Errorf("class %d has %d dims, want 7", c, len(dims))
		}
		for i := 1; i < len(dims); i++ {
			if dims[i] <= dims[i-1] {
				t.Errorf("class %d dims not strictly sorted: %v", c, dims)
			}
		}
		for _, j := range dims {
			if _, ok := gt.Center[c][j]; !ok {
				t.Errorf("class %d missing center for dim %d", c, j)
			}
			if sd := gt.SD[c][j]; sd < 1 || sd > 10 {
				// global range 100, fracs 0.01..0.10
				t.Errorf("class %d dim %d sd=%v outside [1,10]", c, j, sd)
			}
		}
	}
}

func TestGenerateRelevantDimsAreConcentrated(t *testing.T) {
	gt, err := Generate(Config{N: 500, D: 40, K: 4, AvgDims: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		members := gt.MembersOfClass(c)
		relevantSet := map[int]bool{}
		for _, j := range gt.Dims[c] {
			relevantSet[j] = true
		}
		for j := 0; j < gt.Data.D(); j++ {
			var r stats.Running
			for _, v := range gt.Data.GatherColumn(members, j, make([]float64, len(members))) {
				r.Add(v)
			}
			ratio := r.Variance() / gt.Data.ColVariance(j)
			if relevantSet[j] && ratio > 0.5 {
				t.Errorf("class %d relevant dim %d ratio %v too high", c, j, ratio)
			}
			if !relevantSet[j] && ratio < 0.3 {
				t.Errorf("class %d irrelevant dim %d ratio %v too low", c, j, ratio)
			}
		}
	}
}

func TestGenerateOutliers(t *testing.T) {
	gt, err := Generate(Config{N: 400, D: 20, K: 4, AvgDims: 5, OutlierFrac: 0.25, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := gt.NumOutliers(); got != 100 {
		t.Errorf("outliers = %d, want 100", got)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{N: 50, D: 10, K: 2, AvgDims: 3, Seed: 42}
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("labels differ for same seed")
		}
		for j := 0; j < 10; j++ {
			if a.Data.At(i, j) != b.Data.At(i, j) {
				t.Fatal("data differs for same seed")
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{N: 3, D: 10, K: 5, AvgDims: 2}); err == nil {
		t.Error("N < K should error")
	}
	if _, err := Generate(Config{N: 100, D: 10, K: 2, AvgDims: 50}); err == nil {
		t.Error("AvgDims > D should error")
	}
	if _, err := Generate(Config{N: 100, D: 10, K: 2, AvgDims: 2, OutlierFrac: 1.5}); err == nil {
		t.Error("OutlierFrac >= 1 should error")
	}
}

func TestGenerateDimSpread(t *testing.T) {
	gt, err := Generate(Config{N: 300, D: 60, K: 6, AvgDims: 10, DimStdDev: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, dims := range gt.Dims {
		if len(dims) != 10 {
			varied = true
		}
		if len(dims) < 2 {
			t.Errorf("class with %d dims (min 2 enforced)", len(dims))
		}
	}
	if !varied {
		t.Log("note: all classes drew exactly AvgDims dims (possible but unlikely)")
	}
}

func TestClusterSizesSumAndMin(t *testing.T) {
	rng := stats.NewRNG(6)
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(500)
		k := 2 + rng.Intn(6)
		sizes, err := clusterSizes(rng, n, k, 0.5/float64(k))
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range sizes {
			total += s
			if s < int(0.5/float64(k)*float64(n)) {
				t.Fatalf("size %d below min for n=%d k=%d", s, n, k)
			}
		}
		if total != n {
			t.Fatalf("sizes sum to %d, want %d", total, n)
		}
	}
}

func TestSampleKnowledgeCoverageAndSize(t *testing.T) {
	gt, err := Generate(Config{N: 150, D: 100, K: 5, AvgDims: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsAndDims, Coverage: 0.6, Size: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	classes := kn.Classes()
	if len(classes) != 3 { // 0.6 × 5
		t.Fatalf("covered classes = %v, want 3", classes)
	}
	for _, c := range classes {
		objs := kn.ObjectsOfClass(c)
		if len(objs) != 4 {
			t.Errorf("class %d has %d labeled objects, want 4", c, len(objs))
		}
		for _, obj := range objs {
			if gt.Labels[obj] != c {
				t.Errorf("labeled object %d not truly in class %d", obj, c)
			}
		}
		dims := kn.DimsOfClass(c)
		if len(dims) != 4 {
			t.Errorf("class %d has %d labeled dims, want 4", c, len(dims))
		}
		truthSet := map[int]bool{}
		for _, j := range gt.Dims[c] {
			truthSet[j] = true
		}
		for _, j := range dims {
			if !truthSet[j] {
				t.Errorf("labeled dim %d not truly relevant to class %d", j, c)
			}
		}
	}
}

func TestSampleKnowledgeKinds(t *testing.T) {
	gt, _ := Generate(Config{N: 100, D: 50, K: 4, AvgDims: 8, Seed: 9})
	objOnly, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsOnly, Coverage: 1, Size: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(objOnly.ObjectLabels) != 12 || len(objOnly.DimLabels) != 0 {
		t.Errorf("ObjectsOnly: %d objs %d dim classes", len(objOnly.ObjectLabels), len(objOnly.DimLabels))
	}
	dimOnly, err := SampleKnowledge(gt, KnowledgeConfig{Kind: DimsOnly, Coverage: 1, Size: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(dimOnly.ObjectLabels) != 0 {
		t.Error("DimsOnly sampled objects")
	}
	none, err := SampleKnowledge(gt, KnowledgeConfig{Kind: NoKnowledge, Coverage: 1, Size: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !none.Empty() {
		t.Error("NoKnowledge should be empty")
	}
}

func TestSampleKnowledgeSizeExceedsMembers(t *testing.T) {
	gt, _ := Generate(Config{N: 20, D: 30, K: 4, AvgDims: 5, Seed: 10})
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsAndDims, Coverage: 1, Size: 100, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Clamped to available members / dims, no panic, no duplicates.
	for c := 0; c < 4; c++ {
		objs := kn.ObjectsOfClass(c)
		if len(objs) != len(gt.MembersOfClass(c)) {
			t.Errorf("class %d labels %d of %d members", c, len(objs), len(gt.MembersOfClass(c)))
		}
		if len(kn.DimsOfClass(c)) != len(gt.Dims[c]) {
			t.Errorf("class %d dim labels wrong", c)
		}
	}
}

func TestKnowledgeKindString(t *testing.T) {
	if NoKnowledge.String() != "none" || ObjectsOnly.String() != "objects" ||
		DimsOnly.String() != "dims" || ObjectsAndDims.String() != "both" {
		t.Error("KnowledgeKind strings wrong")
	}
	if KnowledgeKind(9).String() == "" {
		t.Error("unknown kind should still format")
	}
}

func TestGenerateMultiGroup(t *testing.T) {
	mg, err := GenerateMultiGroup(
		Config{N: 120, D: 40, K: 3, AvgDims: 6, Seed: 20},
		Config{N: 120, D: 50, K: 4, AvgDims: 6, Seed: 21},
	)
	if err != nil {
		t.Fatal(err)
	}
	if mg.Data.N() != 120 || mg.Data.D() != 90 {
		t.Fatalf("combined shape %dx%d", mg.Data.N(), mg.Data.D())
	}
	// First grouping dims stay in [0,40); second shifted into [40,90).
	for _, dims := range mg.First.Dims {
		for _, j := range dims {
			if j >= 40 {
				t.Errorf("first grouping dim %d out of range", j)
			}
		}
	}
	for c, dims := range mg.Second.Dims {
		for _, j := range dims {
			if j < 40 || j >= 90 {
				t.Errorf("second grouping dim %d out of range", j)
			}
			if _, ok := mg.Second.Center[c][j]; !ok {
				t.Errorf("second grouping center missing for shifted dim %d", j)
			}
		}
	}
	// Combined data must actually contain both groupings' values.
	if mg.First.Data != mg.Data || mg.Second.Data != mg.Data {
		t.Error("ground truths should reference the combined dataset")
	}
}

func TestGenerateMultiGroupNMismatch(t *testing.T) {
	_, err := GenerateMultiGroup(
		Config{N: 100, D: 10, K: 2, AvgDims: 3},
		Config{N: 50, D: 10, K: 2, AvgDims: 3},
	)
	if err == nil {
		t.Error("N mismatch should error")
	}
}

func TestGenerateClustersInsideGlobalRange(t *testing.T) {
	gt, err := Generate(Config{N: 300, D: 20, K: 3, AvgDims: 5, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 20; j++ {
		lo, hi := gt.Data.ColMin(j), gt.Data.ColMax(j)
		// Gaussian tails can poke out slightly; alarm only on gross escapes.
		if lo < -25 || hi > 125 {
			t.Errorf("dim %d range [%v,%v] far outside global [0,100]", j, lo, hi)
		}
	}
	if math.IsNaN(gt.Data.At(0, 0)) {
		t.Error("NaN in generated data")
	}
}
