package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// This file implements the first future extension of the paper's Section 6:
// allowing incorrect inputs. "When inputs could be incorrect, they have to
// be validated before being used to guide the clustering process, for
// example by comparing the assumed data model and the observed data
// values." The checks below do exactly that comparison.

// SuspectObject flags a labeled object inconsistent with the other labeled
// objects of its class.
type SuspectObject struct {
	Object int
	Class  int
	// Score is the average normalized squared distance of the object to
	// the class consensus (the other labeled objects' median over their
	// concentrated dimensions); values ≳ 1 mean the object looks like
	// background rather than a class member.
	Score float64
}

// SuspectDim flags a labeled dimension along which the class shows no
// concentration.
type SuspectDim struct {
	Dim   int
	Class int
	// Dispersion is s² + (µ−µ̃)² of the class's labeled objects on the
	// dimension, as a fraction of the selection threshold ŝ²; values ≥ 1
	// mean the dimension fails SelectDim for the labeled objects.
	// For classes without labeled objects it is the ratio of the expected
	// peak density to the observed peak density of the dimension's 1-D
	// histogram (≥ 1 meaning "no peak anywhere").
	Dispersion float64
}

// KnowledgeReport is the outcome of ValidateKnowledge.
type KnowledgeReport struct {
	SuspectObjects []SuspectObject
	SuspectDims    []SuspectDim
}

// Clean reports whether no suspects were found.
func (r *KnowledgeReport) Clean() bool {
	return len(r.SuspectObjects) == 0 && len(r.SuspectDims) == 0
}

// Apply returns a copy of kn with all suspect entries removed.
func (r *KnowledgeReport) Apply(kn *dataset.Knowledge) *dataset.Knowledge {
	out := dataset.NewKnowledge()
	if kn == nil {
		return out
	}
	badObj := make(map[int]bool, len(r.SuspectObjects))
	for _, s := range r.SuspectObjects {
		badObj[s.Object] = true
	}
	badDim := make(map[[2]int]bool, len(r.SuspectDims))
	for _, s := range r.SuspectDims {
		badDim[[2]int{s.Dim, s.Class}] = true
	}
	for obj, c := range kn.ObjectLabels {
		if !badObj[obj] {
			out.LabelObject(obj, c)
		}
	}
	for c, dims := range kn.DimLabels {
		for _, j := range dims {
			if !badDim[[2]int{j, c}] {
				out.LabelDim(j, c)
			}
		}
	}
	return out
}

// ValidateKnowledge compares the supplied knowledge against the data model
// (§3): labeled objects of one class should be mutually close along the
// dimensions their companions are concentrated on, and labeled dimensions
// should show a concentrated sample (via the labeled objects if present, or
// a density peak otherwise). objectTolerance scales the object criterion
// (1.0 = the same "score < 1" rule used for seed-group growth; 2.0 is a
// reasonable lenient default). Options supply K and the threshold scheme;
// kn replaces opts.Knowledge, so the seed groups are built from the
// knowledge under test.
func ValidateKnowledge(ds *dataset.Dataset, kn *dataset.Knowledge, opts Options, objectTolerance float64) (*KnowledgeReport, error) {
	if ds == nil {
		return nil, errors.New("sspc: nil dataset")
	}
	// normalized also checks kn against the dataset's shape and K.
	opts.Knowledge = kn
	opts, err := opts.normalized(ds)
	if err != nil {
		return nil, err
	}
	if objectTolerance <= 0 {
		objectTolerance = 3
	}
	report := &KnowledgeReport{}
	if kn.Empty() {
		return report, nil
	}
	thr := newThresholds(ds, opts)

	// The object check judges each labeled object against the class's
	// grid-grown seed group (§4.2) rather than against the other labels:
	// the grid anchor (the median of the labeled objects) resists a
	// minority of wrong labels, and the grown reference is a data-supported
	// sample of cluster size — so even a coherent faction of mislabeled
	// objects (all borrowed from one other class) is exposed, which a
	// label-only leave-one-out consensus cannot do.
	validator := newInitializer(context.Background(), ds, opts, thr,
		stats.NewRNG(opts.Seed^0x5eed), []*evalScratch{newEvalScratch(ds.D())})

	for _, c := range kn.Classes() {
		io := kn.ObjectsOfClass(c)
		iv := kn.DimsOfClass(c)

		if len(io) >= 3 {
			group, err := validator.createPrivate(c)
			if err == nil && len(group.dims) > 0 && len(group.seeds) >= 2 {
				for _, obj := range io {
					score := consensusScore(ds, thr, group.seeds, group.dims, obj)
					if score > objectTolerance {
						report.SuspectObjects = append(report.SuspectObjects,
							SuspectObject{Object: obj, Class: c, Score: score})
					}
				}
			}
		}

		// Labeled dimensions.
		dbuf := make([]float64, len(io))
		for _, j := range iv {
			if len(io) >= 2 {
				disp := dispersion(ds, io, j, dbuf)
				sHat := thr.value(j, len(io))
				if ratio := disp / sHat; ratio >= 1 {
					report.SuspectDims = append(report.SuspectDims,
						SuspectDim{Dim: j, Class: c, Dispersion: ratio})
				}
				continue
			}
			// No labeled objects: a relevant dimension must at least show
			// a density peak somewhere.
			var hist [1]*stats.Histogram
			columnHistograms(ds, j, j+1, hist[:])
			h := hist[0]
			if h == nil {
				return nil, fmt.Errorf("sspc: validate dim %d: no finite values", j)
			}
			peak := float64(h.Counts[h.PeakBin()])
			expected := float64(ds.N()) / gridBins
			// A dimension relevant to some cluster of ~n/k objects piles
			// that cluster into one or two cells; an irrelevant dimension's
			// peak stays within multinomial fluctuation of the uniform
			// level (≈ expected + a few √expected).
			bound := expected + 3*math.Sqrt(expected)
			if peak < bound {
				report.SuspectDims = append(report.SuspectDims,
					SuspectDim{Dim: j, Class: c, Dispersion: bound / peak})
			}
		}
	}
	sort.Slice(report.SuspectObjects, func(i, j int) bool {
		return report.SuspectObjects[i].Object < report.SuspectObjects[j].Object
	})
	sort.Slice(report.SuspectDims, func(i, j int) bool {
		a, b := report.SuspectDims[i], report.SuspectDims[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		return a.Dim < b.Dim
	})
	return report, nil
}

// consensusScore is the median (over dims) normalized squared distance of
// obj to the reference objects' median. The median across dimensions makes
// the score robust to a few unrepresentative dimensions in the reference
// group: a genuine member is close on most dimensions (score ≪ 1), while a
// mislabeled object is background-distant on most of them (score ≈ 2–6).
func consensusScore(ds *dataset.Dataset, thr *thresholds, reference []int, dims []int, obj int) float64 {
	med := mediansOn(ds, reference, dims)
	sHat := thr.values(dims, len(reference))
	row := ds.Row(obj)
	ratios := make([]float64, len(dims))
	for t, j := range dims {
		diff := row[j] - med[t]
		ratios[t] = diff * diff / sHat[t]
	}
	return stats.MedianInPlace(ratios)
}

// RunValidatedContext validates the knowledge, drops suspect entries, and
// runs SSPC with the cleaned inputs. It returns the clustering and the report
// so callers can surface what was discarded.
//
// The fit itself follows RunContext's cancellation contract; validation is
// cheap and runs to completion.
func RunValidatedContext(ctx context.Context, ds *dataset.Dataset, opts Options, objectTolerance float64) (*cluster.Result, *KnowledgeReport, error) {
	report, err := ValidateKnowledge(ds, opts.Knowledge, opts, objectTolerance)
	if err != nil {
		return nil, nil, err
	}
	cleaned := opts
	cleaned.Knowledge = report.Apply(opts.Knowledge)
	res, err := RunContext(ctx, ds, cleaned)
	if err != nil {
		return nil, nil, err
	}
	return res, report, nil
}
