package copkmeans

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/synth"
)

// constraintsOf derives must-links and cannot-links from labeled objects
// through the conversion the facade offers, Supervision.AsConstraints.
func constraintsOf(t *testing.T, kn *dataset.Knowledge) *Constraints {
	t.Helper()
	must, cannot, err := (&core.Supervision{Knowledge: kn}).AsConstraints()
	if err != nil {
		t.Fatal(err)
	}
	return &Constraints{MustLink: must, CannotLink: cannot}
}

func TestRunValidation(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{1}, {2}, {3}})
	if _, err := RunContext(context.Background(), nil, nil, DefaultOptions(2)); err == nil {
		t.Error("nil dataset should error")
	}
	if _, err := RunContext(context.Background(), ds, nil, DefaultOptions(0)); err == nil {
		t.Error("K=0 should error")
	}
	bad := &Constraints{MustLink: [][2]int{{0, 99}}}
	if _, err := RunContext(context.Background(), ds, bad, DefaultOptions(2)); err == nil {
		t.Error("out-of-range constraint should error")
	}
}

func TestUnconstrainedIsKMeans(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 300, D: 8, K: 3, AvgDims: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3)
	opts.Seed = 2
	res, err := RunContext(context.Background(), gt.Data, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.ARI(gt.Labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if a < 0.7 {
		t.Errorf("full-space k-means ARI = %v on full-space clusters", a)
	}
}

func TestMustLinksRespected(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 6, K: 2, AvgDims: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{MustLink: [][2]int{{0, 1}, {1, 2}, {10, 20}}}
	res, err := RunContext(context.Background(), gt.Data, cons, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	// Transitivity: 0,1,2 together.
	if res.Assignments[0] != res.Assignments[1] || res.Assignments[1] != res.Assignments[2] {
		t.Error("must-link chain violated")
	}
	if res.Assignments[10] != res.Assignments[20] {
		t.Error("must-link pair violated")
	}
}

func TestCannotLinksRespected(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 6, K: 3, AvgDims: 6, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{CannotLink: [][2]int{{0, 1}, {0, 2}, {1, 2}}}
	res, err := RunContext(context.Background(), gt.Data, cons, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignments[0] == res.Assignments[1] ||
		res.Assignments[0] == res.Assignments[2] ||
		res.Assignments[1] == res.Assignments[2] {
		t.Errorf("cannot-links violated: %v %v %v",
			res.Assignments[0], res.Assignments[1], res.Assignments[2])
	}
}

func TestInfeasibleDetected(t *testing.T) {
	ds, _ := dataset.FromRows([][]float64{{0}, {1}, {2}, {3}})
	// Must-link 0-1, cannot-link 0-1: contradiction.
	cons := &Constraints{
		MustLink:   [][2]int{{0, 1}},
		CannotLink: [][2]int{{0, 1}},
	}
	_, err := RunContext(context.Background(), ds, cons, DefaultOptions(2))
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	// Three mutually cannot-linked objects but only 2 clusters.
	cons = &Constraints{CannotLink: [][2]int{{0, 1}, {0, 2}, {1, 2}}}
	_, err = RunContext(context.Background(), ds, cons, DefaultOptions(2))
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible for 3-clique with k=2, got %v", err)
	}
}

func TestConstraintsImproveAccuracy(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 200, D: 10, K: 4, AvgDims: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsOnly, Coverage: 1, Size: 6, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cons := constraintsOf(t, kn)
	if len(cons.MustLink) == 0 || len(cons.CannotLink) == 0 {
		t.Fatal("labeled objects produced no constraints")
	}
	bestFree, bestCons := -1.0, -1.0
	for s := int64(0); s < 5; s++ {
		opts := DefaultOptions(4)
		opts.Seed = s
		free, err := RunContext(context.Background(), gt.Data, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := eval.ARI(gt.Labels, free.Assignments)
		if a > bestFree {
			bestFree = a
		}
		constrained, err := RunContext(context.Background(), gt.Data, cons, opts)
		if err != nil {
			t.Fatal(err)
		}
		a, _ = eval.ARI(gt.Labels, constrained.Assignments)
		if a > bestCons {
			bestCons = a
		}
	}
	if bestCons < bestFree-0.1 {
		t.Errorf("constraints hurt: free %v vs constrained %v", bestFree, bestCons)
	}
}

func TestFailsOnProjectedClusters(t *testing.T) {
	// The motivating gap: constraints cannot rescue full-space distances
	// at 5% dimensionality — this is where SSPC is needed.
	gt, err := synth.Generate(synth.Config{N: 300, D: 100, K: 4, AvgDims: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsOnly, Coverage: 1, Size: 5, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunContext(context.Background(), gt.Data, constraintsOf(t, kn), DefaultOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	a, err := eval.ARI(gt.Labels, res.Assignments)
	if err != nil {
		t.Fatal(err)
	}
	if a > 0.5 {
		t.Errorf("COP-KMeans ARI = %v on 5%%-dim projected clusters; expected poor", a)
	}
}
