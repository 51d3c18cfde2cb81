package proclus

import (
	"context"
	"slices"
	"testing"

	"repro/internal/eval"
	"repro/internal/synth"
)

func TestRunValidation(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 100, D: 20, K: 3, AvgDims: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(context.Background(), nil, DefaultOptions(3, 5)); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := RunContext(context.Background(), gt.Data, DefaultOptions(0, 5)); err == nil {
		t.Error("K=0 should error")
	}
	if _, err := RunContext(context.Background(), gt.Data, DefaultOptions(3, 1)); err == nil {
		t.Error("L=1 should error")
	}
	if _, err := RunContext(context.Background(), gt.Data, DefaultOptions(3, 100)); err == nil {
		t.Error("L>d should error")
	}
}

func TestRecoverModerateClusters(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 600, D: 40, K: 4, AvgDims: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var bestARI float64
	for r := 0; r < 5; r++ {
		opts := DefaultOptions(4, 12)
		opts.Seed = int64(r)
		res, err := RunContext(context.Background(), gt.Data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(600, 40); err != nil {
			t.Fatal(err)
		}
		a, err := eval.ARI(gt.Labels, res.Assignments)
		if err != nil {
			t.Fatal(err)
		}
		if a > bestARI {
			bestARI = a
		}
	}
	if bestARI < 0.5 {
		t.Errorf("best ARI = %v with correct l, want >= 0.5", bestARI)
	}
}

func TestDimensionBudgetRespected(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 30, K: 3, AvgDims: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3, 8)
	res, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, dims := range res.Dims {
		if len(dims) < 2 {
			t.Errorf("cluster with %d dims, PROCLUS guarantees >= 2", len(dims))
		}
		total += len(dims)
	}
	if total != 3*8 {
		t.Errorf("total selected dims = %d, want K·L = 24", total)
	}
}

func TestWrongLDegradesAccuracy(t *testing.T) {
	// The behaviour Fig. 4 of the SSPC paper documents: PROCLUS with a
	// badly wrong l should not beat PROCLUS with the true l (comparing the
	// best of a few seeds each).
	gt, err := synth.Generate(synth.Config{N: 600, D: 50, K: 4, AvgDims: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	best := func(l int) float64 {
		bestA := -1.0
		for r := 0; r < 5; r++ {
			opts := DefaultOptions(4, l)
			opts.Seed = int64(100 + r)
			res, err := RunContext(context.Background(), gt.Data, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := eval.ARI(gt.Labels, res.Assignments)
			if a > bestA {
				bestA = a
			}
		}
		return bestA
	}
	right := best(10)
	wrong := best(45) // almost all dimensions: degenerates to full-space
	t.Logf("l=10: %.3f, l=45: %.3f", right, wrong)
	if wrong > right+0.1 {
		t.Errorf("grossly wrong l (%v) beat true l (%v)", wrong, right)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 20, K: 3, AvgDims: 6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3, 6)
	opts.Seed = 7
	a, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatal("same seed, different assignments")
		}
	}
}

func TestOutlierHandlingTogglable(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 25, K: 3, AvgDims: 8, OutlierFrac: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	with := DefaultOptions(3, 8)
	with.Seed = 1
	resWith, err := RunContext(context.Background(), gt.Data, with)
	if err != nil {
		t.Fatal(err)
	}
	without := with
	without.OutlierHandling = false
	resWithout, err := RunContext(context.Background(), gt.Data, without)
	if err != nil {
		t.Fatal(err)
	}
	_, outWith := resWith.Sizes()
	_, outWithout := resWithout.Sizes()
	if outWithout != 0 {
		t.Errorf("outliers found with handling disabled: %d", outWithout)
	}
	if outWith == 0 {
		t.Log("note: outlier handling found none (possible on easy data)")
	}
}

func TestSmallDatasetDoesNotPanic(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 20, D: 6, K: 2, AvgDims: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), gt.Data, DefaultOptions(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(20, 6); err != nil {
		t.Fatal(err)
	}
}

func TestFittedSnapshotServable(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 30, K: 3, AvgDims: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3, 8)
	opts.Seed = 4
	res, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fitted == nil {
		t.Fatal("PROCLUS result carries no fitted snapshot")
	}
	if len(res.Fitted) != res.K {
		t.Fatalf("%d fitted clusters for K=%d", len(res.Fitted), res.K)
	}
	for c, fc := range res.Fitted {
		if err := fc.Validate(gt.Data.D()); err != nil {
			t.Errorf("cluster %d: %v", c, err)
		}
		if len(fc.Dims) != len(res.Dims[c]) {
			t.Errorf("cluster %d: fitted dims %v, result dims %v", c, fc.Dims, res.Dims[c])
		}
		for t2, j := range fc.Dims {
			if j != res.Dims[c][t2] {
				t.Errorf("cluster %d: fitted dims %v != result dims %v", c, fc.Dims, res.Dims[c])
				break
			}
			if got := fc.SHat[t2]; got != gt.Data.ColVariance(j) {
				t.Errorf("cluster %d dim %d: ŝ² = %v, want global variance %v", c, j, got, gt.Data.ColVariance(j))
			}
		}
	}
}

// A constant column has zero average distance to every medoid, so every
// cluster selects it, and its global variance — the ŝ² PROCLUS serves with —
// is 0. The fit still returns a valid clustering, but drops Fitted rather
// than emit a model whose Step-3 score divides by zero.
func TestConstantColumnDropsFitted(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 30, K: 3, AvgDims: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	ds := gt.Data
	const constant = 7
	for x := 0; x < ds.N(); x++ {
		ds.Set(x, constant, 1.5)
	}
	opts := DefaultOptions(3, 8)
	opts.Seed = 4
	res, err := RunContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(ds.N(), ds.D()); err != nil {
		t.Fatal(err)
	}
	for c, dims := range res.Dims {
		if !slices.Contains(dims, constant) {
			t.Fatalf("cluster %d dims %v omit the constant column %d", c, dims, constant)
		}
	}
	if res.Fitted != nil {
		t.Errorf("Fitted = %v, want nil for a zero-variance selected column", res.Fitted)
	}
}
