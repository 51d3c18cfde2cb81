package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/synth"
)

func TestValidateCleanKnowledgePasses(t *testing.T) {
	gt := generate(t, synth.Config{N: 200, D: 100, K: 3, AvgDims: 10, Seed: 1})
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(3)
	opts.Knowledge = kn
	report, err := ValidateKnowledge(gt.Data, kn, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.SuspectObjects) > 1 {
		t.Errorf("clean knowledge flagged %d objects: %+v",
			len(report.SuspectObjects), report.SuspectObjects)
	}
	if len(report.SuspectDims) > 1 {
		t.Errorf("clean knowledge flagged %d dims: %+v",
			len(report.SuspectDims), report.SuspectDims)
	}
}

func TestValidateCatchesWrongObjectLabel(t *testing.T) {
	gt := generate(t, synth.Config{N: 200, D: 100, K: 3, AvgDims: 10, Seed: 3})
	kn := dataset.NewKnowledge()
	// Four true members of class 0 plus one object from class 1 labeled 0.
	for _, o := range gt.MembersOfClass(0)[:4] {
		kn.LabelObject(o, 0)
	}
	impostor := gt.MembersOfClass(1)[0]
	kn.LabelObject(impostor, 0)

	opts := DefaultOptions(3)
	opts.Knowledge = kn
	report, err := ValidateKnowledge(gt.Data, kn, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range report.SuspectObjects {
		if s.Object == impostor {
			found = true
			if s.Score <= 3 {
				t.Errorf("impostor score %v should exceed tolerance", s.Score)
			}
		}
	}
	if !found {
		t.Errorf("impostor %d not flagged; report: %+v", impostor, report)
	}
	// Cleaning must remove it but keep the genuine labels.
	cleaned := report.Apply(kn)
	if _, ok := cleaned.ObjectLabels[impostor]; ok {
		t.Error("Apply kept the impostor")
	}
	if len(cleaned.ObjectsOfClass(0)) < 3 {
		t.Errorf("Apply dropped too many genuine labels: %v", cleaned.ObjectsOfClass(0))
	}
}

// TestValidateChecksTheKnowledgeItIsGiven: ValidateKnowledge validates and
// judges its kn argument, whatever opts.Knowledge holds.
func TestValidateChecksTheKnowledgeItIsGiven(t *testing.T) {
	small := generate(t, synth.Config{N: 40, D: 10, K: 2, AvgDims: 3, Seed: 1})
	outside := dataset.NewKnowledge()
	outside.LabelDim(50, 0)
	if _, err := ValidateKnowledge(small.Data, outside, DefaultOptions(2), 3); err == nil {
		t.Error("a label on dimension 50 of a 10-dimensional dataset was accepted")
	}

	// TestValidateCatchesWrongObjectLabel's fixture, with opts.Knowledge
	// unset: the report must be the one built from kn itself.
	gt := generate(t, synth.Config{N: 200, D: 100, K: 3, AvgDims: 10, Seed: 3})
	kn := dataset.NewKnowledge()
	for _, o := range gt.MembersOfClass(0)[:4] {
		kn.LabelObject(o, 0)
	}
	impostor := gt.MembersOfClass(1)[0]
	kn.LabelObject(impostor, 0)
	withKn := DefaultOptions(3)
	withKn.Knowledge = kn
	want, err := ValidateKnowledge(gt.Data, kn, withKn, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ValidateKnowledge(gt.Data, kn, DefaultOptions(3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("report without opts.Knowledge = %+v, want %+v", got, want)
	}
	flagged := false
	for _, s := range got.SuspectObjects {
		flagged = flagged || s.Object == impostor
	}
	if !flagged {
		t.Errorf("impostor %d not flagged; report: %+v", impostor, got)
	}
}

func TestValidateCatchesWrongDimLabel(t *testing.T) {
	gt := generate(t, synth.Config{N: 200, D: 100, K: 3, AvgDims: 10, Seed: 4})
	kn := dataset.NewKnowledge()
	for _, o := range gt.MembersOfClass(0)[:5] {
		kn.LabelObject(o, 0)
	}
	// A dimension irrelevant to class 0.
	relevant := map[int]bool{}
	for _, j := range gt.Dims[0] {
		relevant[j] = true
	}
	wrongDim := -1
	for j := 0; j < gt.Data.D(); j++ {
		if !relevant[j] {
			wrongDim = j
			break
		}
	}
	kn.LabelDim(wrongDim, 0)
	kn.LabelDim(gt.Dims[0][0], 0) // and one correct dim

	opts := DefaultOptions(3)
	opts.Knowledge = kn
	report, err := ValidateKnowledge(gt.Data, kn, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	foundWrong, flaggedRight := false, false
	for _, s := range report.SuspectDims {
		if s.Dim == wrongDim {
			foundWrong = true
		}
		if s.Dim == gt.Dims[0][0] {
			flaggedRight = true
		}
	}
	if !foundWrong {
		t.Errorf("irrelevant labeled dim %d not flagged", wrongDim)
	}
	if flaggedRight {
		t.Error("genuinely relevant labeled dim was flagged")
	}
}

func TestValidateDimWithoutObjectsUsesDensity(t *testing.T) {
	gt := generate(t, synth.Config{N: 300, D: 60, K: 3, AvgDims: 10, Seed: 5})
	kn := dataset.NewKnowledge()
	// Relevant dim: has a density peak (the cluster). Irrelevant dim:
	// uniform everywhere.
	kn.LabelDim(gt.Dims[0][0], 0)
	relevant := map[int]bool{}
	for c := 0; c < 3; c++ {
		for _, j := range gt.Dims[c] {
			relevant[j] = true
		}
	}
	wrongDim := -1
	for j := 0; j < gt.Data.D(); j++ {
		if !relevant[j] {
			wrongDim = j
			break
		}
	}
	kn.LabelDim(wrongDim, 0)

	opts := DefaultOptions(3)
	opts.Knowledge = kn
	report, err := ValidateKnowledge(gt.Data, kn, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	flaggedWrong, flaggedRight := false, false
	for _, s := range report.SuspectDims {
		if s.Dim == wrongDim {
			flaggedWrong = true
		}
		if s.Dim == gt.Dims[0][0] {
			flaggedRight = true
		}
	}
	if !flaggedWrong {
		t.Errorf("peakless labeled dim %d not flagged", wrongDim)
	}
	if flaggedRight {
		t.Error("peaked labeled dim was flagged without object evidence")
	}
}

func TestRunValidatedRecoversFromNoisyInputs(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 800, K: 4, AvgDims: 10, Seed: 6})
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the knowledge: mislabel one object per class.
	for c := 0; c < 4; c++ {
		victim := gt.MembersOfClass((c + 1) % 4)[0]
		kn.LabelObject(victim, c)
	}
	opts := DefaultOptions(4)
	opts.Knowledge = kn
	opts.Seed = 8
	res, report, err := RunValidatedContext(context.Background(), gt.Data, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Error("corrupted knowledge reported clean")
	}
	drop := kn.LabeledObjectSet()
	ft, fp := eval.Filter(gt.Labels, res.Assignments, drop)
	a, err := eval.ARI(ft, fp)
	if err != nil {
		t.Fatal(err)
	}
	if a < 0.6 {
		t.Errorf("validated run ARI = %v with noisy inputs", a)
	}
}

func TestValidateEmptyKnowledge(t *testing.T) {
	gt := generate(t, synth.Config{N: 80, D: 20, K: 2, AvgDims: 5, Seed: 9})
	report, err := ValidateKnowledge(gt.Data, nil, DefaultOptions(2), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() {
		t.Error("empty knowledge should be clean")
	}
	// Apply on nil knowledge yields an empty set, not a panic.
	if out := report.Apply(nil); !out.Empty() {
		t.Error("Apply(nil) should be empty")
	}
}

func TestValidateErrorsOnNilDataset(t *testing.T) {
	if _, err := ValidateKnowledge(nil, nil, DefaultOptions(2), 3); err == nil {
		t.Error("nil dataset should error")
	}
}
