package dataset

import (
	"fmt"
	"sort"
)

// Knowledge carries the semi-supervision inputs of the paper (§3): a
// possibly empty set Io of labeled objects (object → class) and a possibly
// empty set Iv of labeled dimensions (class → dimensions). Classes are
// integers in [0, k). Neither set needs to cover all classes, and a
// dimension may be labeled as relevant to several classes.
type Knowledge struct {
	// ObjectLabels maps an object index to the class it belongs to.
	ObjectLabels map[int]int
	// DimLabels maps a class to the dimensions known to be relevant to it.
	DimLabels map[int][]int
}

// NewKnowledge returns an empty, ready-to-fill Knowledge.
func NewKnowledge() *Knowledge {
	return &Knowledge{
		ObjectLabels: make(map[int]int),
		DimLabels:    make(map[int][]int),
	}
}

// Empty reports whether no knowledge of either kind is present. A nil
// receiver is empty.
func (kn *Knowledge) Empty() bool {
	return kn == nil || (len(kn.ObjectLabels) == 0 && len(kn.DimLabels) == 0)
}

// LabelObject records object obj as a member of class.
func (kn *Knowledge) LabelObject(obj, class int) { kn.ObjectLabels[obj] = class }

// LabelDim records dimension dim as relevant to class. Duplicate labels are
// ignored.
func (kn *Knowledge) LabelDim(dim, class int) {
	for _, existing := range kn.DimLabels[class] {
		if existing == dim {
			return
		}
	}
	kn.DimLabels[class] = append(kn.DimLabels[class], dim)
}

// ObjectsOfClass returns the labeled objects of class in ascending order.
// A nil receiver returns nil.
func (kn *Knowledge) ObjectsOfClass(class int) []int {
	if kn == nil {
		return nil
	}
	var out []int
	for obj, c := range kn.ObjectLabels {
		if c == class {
			out = append(out, obj)
		}
	}
	sort.Ints(out)
	return out
}

// DimsOfClass returns the labeled dimensions of class in ascending order.
func (kn *Knowledge) DimsOfClass(class int) []int {
	if kn == nil {
		return nil
	}
	out := append([]int(nil), kn.DimLabels[class]...)
	sort.Ints(out)
	return out
}

// LabeledObjectSet returns the set of all labeled object indices, regardless
// of class. SSPC uses it to exclude labeled objects from the ARI computation
// per the paper's evaluation protocol (§5).
func (kn *Knowledge) LabeledObjectSet() map[int]bool {
	out := make(map[int]bool)
	if kn == nil {
		return out
	}
	for obj := range kn.ObjectLabels {
		out[obj] = true
	}
	return out
}

// Classes returns every class mentioned by either kind of input, ascending.
func (kn *Knowledge) Classes() []int {
	if kn == nil {
		return nil
	}
	seen := map[int]bool{}
	for _, c := range kn.ObjectLabels {
		seen[c] = true
	}
	for c := range kn.DimLabels {
		if len(kn.DimLabels[c]) > 0 {
			seen[c] = true
		}
	}
	return sortedKeys(seen)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	return keys
}

// Validate checks that all object indices are in [0,n), all dimension
// indices in [0,d), and all classes in [0,k). Objects and classes are
// checked in ascending order and a class's dimensions in their stored
// order, so the error names the same entry on every call: the smallest
// offending object, else the smallest offending class.
func (kn *Knowledge) Validate(n, d, k int) error {
	if kn == nil {
		return nil
	}
	for _, obj := range sortedKeys(kn.ObjectLabels) {
		c := kn.ObjectLabels[obj]
		if obj < 0 || obj >= n {
			return fmt.Errorf("knowledge: object %d out of range [0,%d)", obj, n)
		}
		if c < 0 || c >= k {
			return fmt.Errorf("knowledge: object %d has class %d out of range [0,%d)", obj, c, k)
		}
	}
	for _, c := range sortedKeys(kn.DimLabels) {
		if c < 0 || c >= k {
			return fmt.Errorf("knowledge: dimension label class %d out of range [0,%d)", c, k)
		}
		for _, dim := range kn.DimLabels[c] {
			if dim < 0 || dim >= d {
				return fmt.Errorf("knowledge: dimension %d out of range [0,%d)", dim, d)
			}
		}
	}
	return nil
}
