package dataset

import (
	"math/rand"
	"strings"
	"testing"
)

// newTestRNG gives tests a local random source without importing stats
// (avoiding an import cycle in tests).
func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func meanVar(xs []float64) (float64, float64) {
	m := 0.0
	for _, x := range xs {
		m += x
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		v += (x - m) * (x - m)
	}
	if len(xs) > 1 {
		v /= float64(len(xs) - 1)
	} else {
		v = 0
	}
	return m, v
}

func TestKnowledgeEmpty(t *testing.T) {
	var kn *Knowledge
	if !kn.Empty() {
		t.Error("nil knowledge should be empty")
	}
	kn = NewKnowledge()
	if !kn.Empty() {
		t.Error("fresh knowledge should be empty")
	}
	kn.LabelObject(3, 1)
	if kn.Empty() {
		t.Error("labeled knowledge should not be empty")
	}
}

func TestKnowledgeObjectsOfClass(t *testing.T) {
	kn := NewKnowledge()
	kn.LabelObject(5, 0)
	kn.LabelObject(2, 0)
	kn.LabelObject(9, 1)
	got := kn.ObjectsOfClass(0)
	if len(got) != 2 || got[0] != 2 || got[1] != 5 {
		t.Errorf("ObjectsOfClass(0) = %v", got)
	}
	if got := kn.ObjectsOfClass(7); got != nil {
		t.Errorf("unknown class should be nil, got %v", got)
	}
}

func TestKnowledgeDimDeduplication(t *testing.T) {
	kn := NewKnowledge()
	kn.LabelDim(4, 2)
	kn.LabelDim(4, 2)
	kn.LabelDim(1, 2)
	got := kn.DimsOfClass(2)
	if len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Errorf("DimsOfClass = %v", got)
	}
}

func TestKnowledgeDimMultiClass(t *testing.T) {
	kn := NewKnowledge()
	kn.LabelDim(7, 0)
	kn.LabelDim(7, 1) // same dimension relevant to two classes is allowed
	if len(kn.DimsOfClass(0)) != 1 || len(kn.DimsOfClass(1)) != 1 {
		t.Error("dimension should be labelable for multiple classes")
	}
}

func TestKnowledgeClasses(t *testing.T) {
	kn := NewKnowledge()
	kn.LabelObject(0, 3)
	kn.LabelDim(1, 1)
	got := kn.Classes()
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("Classes = %v", got)
	}
}

func TestKnowledgeLabeledObjectSet(t *testing.T) {
	kn := NewKnowledge()
	kn.LabelObject(1, 0)
	kn.LabelObject(8, 2)
	set := kn.LabeledObjectSet()
	if !set[1] || !set[8] || set[3] {
		t.Errorf("LabeledObjectSet = %v", set)
	}
	var nilKn *Knowledge
	if len(nilKn.LabeledObjectSet()) != 0 {
		t.Error("nil knowledge should give empty set")
	}
}

func TestKnowledgeValidate(t *testing.T) {
	kn := NewKnowledge()
	kn.LabelObject(5, 1)
	kn.LabelDim(3, 1)
	if err := kn.Validate(10, 4, 2); err != nil {
		t.Errorf("valid knowledge rejected: %v", err)
	}
	if err := kn.Validate(5, 4, 2); err == nil {
		t.Error("object out of range should fail")
	}
	if err := kn.Validate(10, 3, 2); err == nil {
		t.Error("dim out of range should fail")
	}
	if err := kn.Validate(10, 4, 1); err == nil {
		t.Error("class out of range should fail")
	}
	var nilKn *Knowledge
	if err := nilKn.Validate(1, 1, 1); err != nil {
		t.Error("nil knowledge should validate")
	}
}

// Validate names the same entry on every call — the smallest offending
// object or class — whatever order Go's map iteration yields.
func TestKnowledgeValidateNamesSmallestEntry(t *testing.T) {
	objects := NewKnowledge()
	for _, obj := range []int{13, 11, 12, 10} { // all out of [0,10)
		objects.LabelObject(obj, 0)
	}
	classes := NewKnowledge()
	classes.LabelDim(0, 3)
	classes.LabelDim(0, 2) // both out of [0,2)
	for _, tc := range []struct {
		name string
		kn   *Knowledge
		want string
	}{
		{"objects", objects, "object 10 out of range"},
		{"classes", classes, "class 2 out of range"},
	} {
		first := tc.kn.Validate(10, 4, 2)
		if first == nil || !strings.Contains(first.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one naming %q", tc.name, first, tc.want)
		}
		for call := 1; call < 200; call++ {
			if err := tc.kn.Validate(10, 4, 2); err == nil || err.Error() != first.Error() {
				t.Fatalf("%s: call %d: error %v, first call %v", tc.name, call, err, first)
			}
		}
	}
}
