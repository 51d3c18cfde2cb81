package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/synth"
)

func mustDataset(t *testing.T, rows [][]float64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func thresholdsFor(ds *dataset.Dataset, scheme ThresholdScheme, param float64) *thresholds {
	opts := DefaultOptions(2)
	opts.Scheme = scheme
	if scheme == SchemeM {
		opts.M = param
	} else {
		opts.P = param
	}
	return newThresholds(ds, opts)
}

func TestSelectDimsMatchesLemma1(t *testing.T) {
	// Lemma 1: select vj iff s²_ij + (µ_ij − µ̃_ij)² < ŝ²_ij. Build a
	// dataset where dim 0 is tight for the members and dim 1 is not.
	ds := mustDataset(t, [][]float64{
		{0.0, 0}, {0.1, 50}, {0.2, 100}, // members: tight on dim 0 only
		{50, 0}, {60, 60}, {70, 30}, {80, 90}, {90, 10}, // background
	})
	thr := thresholdsFor(ds, SchemeM, 0.5)
	members := []int{0, 1, 2}
	dims := selectDims(ds, members, thr, newEvalScratch(ds.D()))
	if len(dims) != 1 || dims[0] != 0 {
		t.Fatalf("selectDims = %v, want [0]", dims)
	}
	// Explicit Lemma 1 check per dimension.
	for j := 0; j < 2; j++ {
		disp := dispersion(ds, members, j, make([]float64, len(members)))
		sHat := thr.value(j, len(members))
		selected := false
		for _, dj := range dims {
			if dj == j {
				selected = true
			}
		}
		if selected != (disp < sHat) {
			t.Errorf("dim %d: selected=%v but disp=%v sHat=%v", j, selected, disp, sHat)
		}
	}
}

func TestPhiPositiveForSelectedDims(t *testing.T) {
	// Design goal #2: φ_ij > 0 for every selected dimension, and tighter
	// dimensions contribute more.
	gt, err := synth.Generate(synth.Config{N: 200, D: 30, K: 2, AvgDims: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	thr := thresholdsFor(gt.Data, SchemeM, 0.5)
	members := gt.MembersOfClass(0)
	evals := evaluateDims(gt.Data, members, thr, newEvalScratch(gt.Data.D()))
	for j, e := range evals {
		if e.selected && e.phi <= 0 {
			t.Errorf("selected dim %d has φ_ij = %v <= 0", j, e.phi)
		}
		if !e.selected && e.phi >= 0 {
			t.Errorf("unselected dim %d has φ_ij = %v >= 0", j, e.phi)
		}
	}
}

func TestEvaluateClusterConsistent(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 150, D: 20, K: 2, AvgDims: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	thr := thresholdsFor(gt.Data, SchemeM, 0.5)
	members := gt.MembersOfClass(1)
	buf := make([]float64, len(members))
	ev := evaluateCluster(gt.Data, members, thr, newEvalScratch(gt.Data.D()), nil)
	// φ_i from evaluateCluster equals phiCluster over the same dims.
	direct := phiCluster(gt.Data, members, ev.dims, thr, buf)
	if math.Abs(ev.phi-direct) > 1e-9*(1+math.Abs(direct)) {
		t.Errorf("evaluateCluster φ=%v, phiCluster=%v", ev.phi, direct)
	}
	// And matches the sum of per-dim φ_ij.
	sum := 0.0
	for _, j := range ev.dims {
		sum += phiIJ(gt.Data, members, j, thr, buf)
	}
	if math.Abs(ev.phi-sum) > 1e-9*(1+math.Abs(sum)) {
		t.Errorf("φ_i = %v but Σφ_ij = %v", ev.phi, sum)
	}
}

// Property (Lemma 1): the dimension set chosen by SelectDim maximizes φ_i
// over all dimension sets — adding any unselected dimension or removing any
// selected one cannot increase φ_i.
func TestSelectDimMaximizesPhiProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		n, d := 8+rng.Intn(30), 2+rng.Intn(8)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				rows[i][j] = rng.Norm(0, 1+float64(j))
			}
		}
		ds, err := dataset.FromRows(rows)
		if err != nil {
			return false
		}
		thr := thresholdsFor(ds, SchemeM, 0.6)
		members := rng.Sample(n, 3+rng.Intn(n-3))
		buf := make([]float64, len(members))
		ev := evaluateCluster(ds, members, thr, newEvalScratch(d), nil)

		selected := make(map[int]bool, len(ev.dims))
		for _, j := range ev.dims {
			selected[j] = true
		}
		for j := 0; j < d; j++ {
			phi := phiIJ(ds, members, j, thr, buf)
			if selected[j] && phi < 0 {
				return false // removing it would raise φ_i: contradiction
			}
			if !selected[j] && phi > 0 {
				return false // adding it would raise φ_i: contradiction
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestSchemePThresholdTightensWithP(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 100, D: 10, K: 2, AvgDims: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	tight := thresholdsFor(gt.Data, SchemeP, 0.01)
	loose := thresholdsFor(gt.Data, SchemeP, 0.3)
	for j := 0; j < 10; j++ {
		if tight.value(j, 20) >= loose.value(j, 20) {
			t.Errorf("dim %d: p=0.01 threshold %v not below p=0.3 %v",
				j, tight.value(j, 20), loose.value(j, 20))
		}
	}
}

func TestSchemePFactorCachedAndClamped(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 50, D: 5, K: 2, AvgDims: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	thr := thresholdsFor(gt.Data, SchemeP, 0.1)
	a := thr.factor(10)
	b := thr.factor(10)
	if a != b {
		t.Error("factor not deterministic/cached")
	}
	// ni < 2 clamps to ni = 2 rather than exploding.
	if got, want := thr.factor(1), thr.factor(2); got != want {
		t.Errorf("factor(1)=%v, want factor(2)=%v", got, want)
	}
	// The factor approaches 1 as ni grows (χ²_inv(p,ν)/ν → 1).
	if f := thr.factor(100000); math.Abs(f-1) > 0.05 {
		t.Errorf("asymptotic factor = %v, want ≈1", f)
	}
}

func TestSchemeMValuesIndependentOfSize(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 60, D: 8, K: 2, AvgDims: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	thr := thresholdsFor(gt.Data, SchemeM, 0.4)
	for j := 0; j < 8; j++ {
		if thr.value(j, 5) != thr.value(j, 50) {
			t.Errorf("scheme m threshold depends on ni at dim %d", j)
		}
		if want := 0.4 * gt.Data.ColVariance(j); thr.value(j, 5) != want {
			t.Errorf("dim %d: threshold %v, want %v", j, thr.value(j, 5), want)
		}
	}
	if s := thr.scale(7); s != 0.4 {
		t.Errorf("scheme m scale = %v, want m = 0.4", s)
	}
}

func TestDispersionDegenerate(t *testing.T) {
	ds := mustDataset(t, [][]float64{{1}, {2}, {3}})
	buf := make([]float64, 1)
	if got := dispersion(ds, nil, 0, buf); !math.IsInf(got, 1) {
		t.Errorf("empty members dispersion = %v, want +Inf", got)
	}
	if got := dispersion(ds, []int{0}, 0, buf); got != 0 {
		t.Errorf("singleton dispersion = %v, want 0", got)
	}
}

func TestMedianRobustnessVsMean(t *testing.T) {
	// Design goal #3: the (µ−µ̃)² term plus median-centering make φ robust.
	// A cluster with one wild outlier member should still select its tight
	// dimension when the median is used.
	rows := [][]float64{
		{10.0}, {10.1}, {10.2}, {10.3}, {9.9}, {9.8}, {200}, // one rogue member
	}
	for i := 0; i < 30; i++ {
		rows = append(rows, []float64{float64(i * 7 % 100)})
	}
	ds := mustDataset(t, rows)
	thr := thresholdsFor(ds, SchemeM, 0.5)
	members := []int{0, 1, 2, 3, 4, 5, 6}
	med := ds.SubsetMedian(members, 0)
	if math.Abs(med-10) > 0.5 {
		t.Errorf("median %v should resist the rogue member", med)
	}
	// The rogue inflates the variance enough that the dimension is not
	// selected; but the median-based assignment score still favours the
	// tight members over background objects.
	repScore := func(x float64) float64 {
		diff := x - med
		return 1 - diff*diff/thr.value(0, len(members))
	}
	if repScore(10.05) <= repScore(55) {
		t.Error("member should score higher than background against the median rep")
	}
}

func TestOverallPhiNormalization(t *testing.T) {
	if got := overallPhi(50, 10, 5); got != 1 {
		t.Errorf("overallPhi = %v, want 1", got)
	}
}
