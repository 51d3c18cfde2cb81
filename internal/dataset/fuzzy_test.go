package dataset

import "testing"

func TestFuzzyConfidenceValidation(t *testing.T) {
	fk := NewFuzzyKnowledge()
	if err := fk.LabelObject(1, 0, 0); err == nil {
		t.Error("confidence 0 should be rejected")
	}
	if err := fk.LabelObject(1, 0, 1.5); err == nil {
		t.Error("confidence > 1 should be rejected")
	}
	if err := fk.LabelDim(1, 0, -0.5); err == nil {
		t.Error("negative confidence should be rejected")
	}
	if err := fk.LabelObject(1, 0, 1); err != nil {
		t.Errorf("confidence 1 rejected: %v", err)
	}
}

func TestHardenThresholds(t *testing.T) {
	fk := NewFuzzyKnowledge()
	mustAdd := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(fk.LabelObject(0, 0, 0.9))
	mustAdd(fk.LabelObject(1, 0, 0.4))
	mustAdd(fk.LabelDim(5, 0, 0.8))
	mustAdd(fk.LabelDim(6, 0, 0.3))

	kn := fk.Harden(0.5)
	if _, ok := kn.ObjectLabels[0]; !ok {
		t.Error("confident object dropped")
	}
	if _, ok := kn.ObjectLabels[1]; ok {
		t.Error("low-confidence object kept")
	}
	dims := kn.DimsOfClass(0)
	if len(dims) != 1 || dims[0] != 5 {
		t.Errorf("hardened dims = %v", dims)
	}
	// Threshold 0 keeps everything.
	all := fk.Harden(0)
	if len(all.ObjectLabels) != 2 || len(all.DimsOfClass(0)) != 2 {
		t.Error("zero threshold should keep all entries")
	}
}

func TestHardenConflictingLabelsMostConfidentWins(t *testing.T) {
	fk := NewFuzzyKnowledge()
	if err := fk.LabelObject(7, 0, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := fk.LabelObject(7, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	kn := fk.Harden(0.5)
	if kn.ObjectLabels[7] != 1 {
		t.Errorf("object 7 labeled %d, want the more confident class 1", kn.ObjectLabels[7])
	}
	// Tie: lowest class wins deterministically.
	fk2 := NewFuzzyKnowledge()
	_ = fk2.LabelObject(3, 2, 0.7)
	_ = fk2.LabelObject(3, 1, 0.7)
	if got := fk2.Harden(0).ObjectLabels[3]; got != 1 {
		t.Errorf("tie broke to class %d, want 1", got)
	}
}

func TestTopConfident(t *testing.T) {
	fk := NewFuzzyKnowledge()
	confs := []float64{0.9, 0.5, 0.7, 0.3}
	for i, c := range confs {
		if err := fk.LabelObject(i, 0, c); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range confs {
		if err := fk.LabelDim(10+i, 1, c); err != nil {
			t.Fatal(err)
		}
	}
	kn := fk.TopConfident(2)
	objs := kn.ObjectsOfClass(0)
	if len(objs) != 2 || objs[0] != 0 || objs[1] != 2 {
		t.Errorf("top objects = %v, want [0 2]", objs)
	}
	dims := kn.DimsOfClass(1)
	if len(dims) != 2 || dims[0] != 10 || dims[1] != 12 {
		t.Errorf("top dims = %v, want [10 12]", dims)
	}
	if !fk.TopConfident(0).Empty() {
		t.Error("perClass=0 should be empty")
	}
}
