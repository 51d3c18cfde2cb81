package dataset

import (
	"errors"
	"sort"
)

// FuzzyKnowledge realizes the paper's §6 "fuzzy inputs" extension: every
// labeled object and labeled dimension carries a confidence level in (0,1]
// indicating its chance of being correct. SSPC itself consumes hard
// Knowledge; Harden converts fuzzy inputs by confidence thresholding, and
// TopConfident keeps only the most trustworthy entries per class — the two
// simple policies the extension suggests studying.
type FuzzyKnowledge struct {
	objects []fuzzyObject
	dims    []fuzzyDim
}

type fuzzyObject struct {
	object, class int
	confidence    float64
}

type fuzzyDim struct {
	dim, class int
	confidence float64
}

// NewFuzzyKnowledge returns an empty fuzzy knowledge set.
func NewFuzzyKnowledge() *FuzzyKnowledge { return &FuzzyKnowledge{} }

// LabelObject records object obj as a member of class with the given
// confidence. Confidence must be in (0,1].
func (fk *FuzzyKnowledge) LabelObject(obj, class int, confidence float64) error {
	if confidence <= 0 || confidence > 1 {
		return errors.New("dataset: confidence must be in (0,1]")
	}
	fk.objects = append(fk.objects, fuzzyObject{obj, class, confidence})
	return nil
}

// LabelDim records dimension dim as relevant to class with the given
// confidence.
func (fk *FuzzyKnowledge) LabelDim(dim, class int, confidence float64) error {
	if confidence <= 0 || confidence > 1 {
		return errors.New("dataset: confidence must be in (0,1]")
	}
	fk.dims = append(fk.dims, fuzzyDim{dim, class, confidence})
	return nil
}

// Harden returns the hard Knowledge containing every entry with confidence
// >= minConfidence. When an object carries multiple labels above the
// threshold, the most confident one wins (ties: lowest class).
func (fk *FuzzyKnowledge) Harden(minConfidence float64) *Knowledge {
	kn := NewKnowledge()
	best := map[int]fuzzyObject{}
	for _, fo := range fk.objects {
		if fo.confidence < minConfidence {
			continue
		}
		cur, ok := best[fo.object]
		if !ok || fo.confidence > cur.confidence ||
			(fo.confidence == cur.confidence && fo.class < cur.class) {
			best[fo.object] = fo
		}
	}
	objs := make([]int, 0, len(best))
	for obj := range best {
		objs = append(objs, obj)
	}
	sort.Ints(objs)
	for _, obj := range objs {
		kn.LabelObject(obj, best[obj].class)
	}
	for _, fd := range fk.dims {
		if fd.confidence >= minConfidence {
			kn.LabelDim(fd.dim, fd.class)
		}
	}
	return kn
}

// TopConfident returns the hard Knowledge with at most perClass
// highest-confidence objects and dimensions for each class.
func (fk *FuzzyKnowledge) TopConfident(perClass int) *Knowledge {
	kn := NewKnowledge()
	if perClass <= 0 {
		return kn
	}
	byClassObj := map[int][]fuzzyObject{}
	for _, fo := range fk.objects {
		byClassObj[fo.class] = append(byClassObj[fo.class], fo)
	}
	classes := make([]int, 0, len(byClassObj))
	for c := range byClassObj {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		entries := byClassObj[c]
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].confidence != entries[j].confidence {
				return entries[i].confidence > entries[j].confidence
			}
			return entries[i].object < entries[j].object
		})
		for t := 0; t < perClass && t < len(entries); t++ {
			kn.LabelObject(entries[t].object, c)
		}
	}
	byClassDim := map[int][]fuzzyDim{}
	for _, fd := range fk.dims {
		byClassDim[fd.class] = append(byClassDim[fd.class], fd)
	}
	classes = classes[:0]
	for c := range byClassDim {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	for _, c := range classes {
		entries := byClassDim[c]
		sort.Slice(entries, func(i, j int) bool {
			if entries[i].confidence != entries[j].confidence {
				return entries[i].confidence > entries[j].confidence
			}
			return entries[i].dim < entries[j].dim
		})
		for t := 0; t < perClass && t < len(entries); t++ {
			kn.LabelDim(entries[t].dim, c)
		}
	}
	return kn
}
