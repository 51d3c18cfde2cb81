package sspc

import (
	"context"
	"errors"
	"testing"
)

func TestFacadeCLIQUE(t *testing.T) {
	gt, err := Generate(SynthConfig{
		N: 300, D: 6, K: 2, AvgDims: 3,
		LocalSDMinFrac: 0.01, LocalSDMaxFrac: 0.03, Seed: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := CLIQUEDefaults()
	opts.Tau = 0.08
	subspaces, res, err := CLIQUE(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(subspaces) == 0 {
		t.Error("CLIQUE found no subspaces")
	}
	if err := res.Validate(300, 6); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBiclusters(t *testing.T) {
	gt, err := Generate(SynthConfig{N: 60, D: 20, K: 2, AvgDims: 6, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	found, res, err := Biclusters(context.Background(), gt.Data, BiclusterDefaults(2, 50))
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 {
		t.Fatalf("found %d biclusters", len(found))
	}
	for _, b := range found {
		if len(b.Rows) < 2 || len(b.Cols) < 2 {
			t.Errorf("degenerate bicluster %dx%d", len(b.Rows), len(b.Cols))
		}
	}
	if err := res.Validate(60, 20); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeCOPKMeans(t *testing.T) {
	gt, err := Generate(SynthConfig{N: 150, D: 8, K: 3, AvgDims: 8, Seed: 32})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsOnly, Coverage: 1, Size: 4, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	must, cannot, err := (&Supervision{Knowledge: kn}).AsConstraints()
	if err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{MustLink: must, CannotLink: cannot}
	res, err := COPKMeans(context.Background(), gt.Data, cons, COPKMeansDefaults(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(150, 8); err != nil {
		t.Fatal(err)
	}
	// Infeasible constraints surface as ErrInfeasible through the facade.
	bad := &Constraints{MustLink: [][2]int{{0, 1}}, CannotLink: [][2]int{{0, 1}}}
	if _, err := COPKMeans(context.Background(), gt.Data, bad, COPKMeansDefaults(3)); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

// TestCrossSupervisionForms feeds the same labeled objects, expressed in
// all three supervision forms (labels, pairwise constraints, seed sets),
// through the Supervision conversions to every algorithm that accepts
// supervision. Each combination must produce a valid Result without
// panicking — the contract of the unified supervision layer.
func TestCrossSupervisionForms(t *testing.T) {
	const n, d, k = 150, 8, 3
	gt, err := Generate(SynthConfig{N: n, D: d, K: k, AvgDims: 8, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsOnly, Coverage: 1, Size: 3, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}

	// The same information in three forms. The constraint and seed-set
	// forms are derived through the Supervision conversions themselves, so
	// the test also proves conversion round-trips feed back in cleanly.
	base := &Supervision{Knowledge: kn}
	must, cannot, err := base.AsConstraints()
	if err != nil {
		t.Fatal(err)
	}
	sets, err := base.AsSeedSets()
	if err != nil {
		t.Fatal(err)
	}
	forms := []struct {
		name string
		sup  *Supervision
	}{
		{"labels", base},
		{"constraints", &Supervision{MustLink: must, CannotLink: cannot}},
		{"seedsets", &Supervision{SeedSets: sets}},
	}

	for _, form := range forms {
		form := form
		t.Run(form.name, func(t *testing.T) {
			if err := form.sup.Validate(n, d, k); err != nil {
				t.Fatal(err)
			}
			knF, err := form.sup.AsKnowledge()
			if err != nil {
				t.Fatal(err)
			}
			mustF, cannotF, err := form.sup.AsConstraints()
			if err != nil {
				t.Fatal(err)
			}

			algos := []struct {
				name string
				run  func() (*Result, error)
			}{
				{"SSPC", func() (*Result, error) {
					opts := DefaultOptions(k)
					opts.Knowledge = knF
					opts.Seed = 38
					return Cluster(context.Background(), gt.Data, opts)
				}},
				{"COPKMeans", func() (*Result, error) {
					cons := &Constraints{MustLink: mustF, CannotLink: cannotF}
					opts := COPKMeansDefaults(k)
					opts.Seed = 38
					return COPKMeans(context.Background(), gt.Data, cons, opts)
				}},
				{"SeedKMeans", func() (*Result, error) {
					opts := SeedKMeansDefaults(k)
					opts.Seed = 38
					return SeedKMeans(context.Background(), gt.Data, knF, opts)
				}},
				{"ConstrainedKMeans", func() (*Result, error) {
					opts := SeedKMeansDefaults(k)
					opts.Constrained = true
					opts.Seed = 38
					return SeedKMeans(context.Background(), gt.Data, knF, opts)
				}},
			}
			for _, a := range algos {
				res, err := a.run()
				if err != nil {
					t.Errorf("%s under %s supervision: %v", a.name, form.name, err)
					continue
				}
				if err := res.Validate(n, d); err != nil {
					t.Errorf("%s under %s supervision: invalid result: %v", a.name, form.name, err)
				}
			}
		})
	}
}

func TestFacadeKnowledgeValidation(t *testing.T) {
	gt, err := Generate(SynthConfig{N: 150, D: 100, K: 3, AvgDims: 10, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsAndDims, Coverage: 1, Size: 5, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one label.
	impostor := gt.MembersOfClass(1)[0]
	kn.LabelObject(impostor, 0)

	opts := DefaultOptions(3)
	opts.Knowledge = kn
	report, err := ValidateKnowledge(gt.Data, kn, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Error("corrupted knowledge reported clean")
	}
	res, report2, err := ClusterValidated(context.Background(), gt.Data, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report2.Clean() {
		t.Error("ClusterValidated missed the corruption")
	}
	if err := res.Validate(150, 100); err != nil {
		t.Fatal(err)
	}
}
