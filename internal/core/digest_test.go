package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/synth"
)

// TestSupervisedDigest pins supervised SSPC bit for bit. It hashes three
// things over one low-dimensional dataset:
//   - whole fits (assignments, dims, score bits and every Fitted triple's
//     bits) for labeled objects only, labeled dimensions only and both, at
//     input sizes 1 and 5, under schemes m and p, at Workers 1 and 3;
//   - the seed groups initialize builds for each of those inputs (seeds,
//     dims, class and medianOnDims bits);
//   - ValidateKnowledge reports for clean knowledge, knowledge with one
//     wrong object and one wrong dimension per class, and dimensions-only
//     knowledge, under both schemes.
//
// The inputs reach all three private-group cases of §4.2 (one labeled
// object, several, none) and both grid plans (one grid when every candidate
// dimension fits in it, Grids otherwise), with and without the boosted
// grids of labeled dimensions.
func TestSupervisedDigest(t *testing.T) {
	const want = "e11c02a5b1500d6ec91080436ba7864a5a06d6c85df7bebe629975fa511321b5"
	gt := generate(t, synth.Config{N: 150, D: 300, K: 5, AvgDims: 10, Seed: 3})
	h := sha256.New()
	kinds := []synth.KnowledgeKind{synth.ObjectsOnly, synth.DimsOnly, synth.ObjectsAndDims}
	for _, kind := range kinds {
		for _, size := range []int{1, 5} {
			kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{Kind: kind, Coverage: 1, Size: size, Seed: 22})
			if err != nil {
				t.Fatal(err)
			}
			for _, scheme := range []ThresholdScheme{SchemeM, SchemeP} {
				opts := DefaultOptions(gt.Config.K)
				opts.Knowledge = kn
				opts.Scheme = scheme
				opts.Seed = 23
				name := fmt.Sprintf("%v/size=%d/scheme=%v", kind, size, scheme)
				hashInitialize(t, h, gt.Data, opts, name)
				for _, workers := range []int{1, 3} {
					opts.Workers = workers
					res, err := RunContext(context.Background(), gt.Data, opts)
					if err != nil {
						t.Fatalf("%s/workers=%d: %v", name, workers, err)
					}
					hashInts(h, res.Assignments)
					for _, dims := range res.Dims {
						hashInts(h, dims)
					}
					hashFloats(h, []float64{res.Score})
					for _, fc := range res.Fitted {
						hashInts(h, fc.Dims)
						hashFloats(h, fc.Rep)
						hashFloats(h, fc.SHat)
					}
				}
			}
		}
	}
	for _, scheme := range []ThresholdScheme{SchemeM, SchemeP} {
		opts := DefaultOptions(gt.Config.K)
		opts.Scheme = scheme
		opts.Seed = 24
		for u, kn := range validationInputs(t, gt) {
			report, err := ValidateKnowledge(gt.Data, kn, opts, 0)
			if err != nil {
				t.Fatalf("validate input %d/scheme=%v: %v", u, scheme, err)
			}
			for _, s := range report.SuspectObjects {
				hashInts(h, []int{s.Object, s.Class})
				hashFloats(h, []float64{s.Score})
			}
			for _, s := range report.SuspectDims {
				hashInts(h, []int{s.Dim, s.Class})
				hashFloats(h, []float64{s.Dispersion})
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("supervised digest %s, want %s", got, want)
	}
}

// hashInitialize hashes the seed groups initialize builds on one slot.
func hashInitialize(t *testing.T, h hash.Hash, ds *dataset.Dataset, opts Options, name string) {
	t.Helper()
	opts, err := opts.normalized(ds)
	if err != nil {
		t.Fatal(err)
	}
	private, public, err := initialize(context.Background(), ds, opts, newThresholds(ds, opts),
		newTestRNGCore(opts.Seed), slotScratch(ds.D(), 1))
	if err != nil {
		t.Fatalf("%s: initialize: %v", name, err)
	}
	for _, g := range groupsInOrder(private, public) {
		hashInts(h, g.seeds)
		hashInts(h, g.dims)
		hashInts(h, []int{g.class})
		hashFloats(h, g.medianOnDims)
	}
}

// validationInputs returns the knowledge ValidateKnowledge is pinned on:
// five objects and five dimensions per class, the same with one object and
// one dimension of the next class added to each class, and five dimensions
// per class alone.
func validationInputs(t *testing.T, gt *synth.GroundTruth) [3]*dataset.Knowledge {
	t.Helper()
	var out [3]*dataset.Knowledge
	for u, kind := range []synth.KnowledgeKind{synth.ObjectsAndDims, synth.ObjectsAndDims, synth.DimsOnly} {
		kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{Kind: kind, Coverage: 1, Size: 5, Seed: 25})
		if err != nil {
			t.Fatal(err)
		}
		out[u] = kn
	}
	wrong := out[1]
	k := gt.Config.K
	for c := 0; c < k; c++ {
		other := (c + 1) % k
		for _, obj := range gt.MembersOfClass(other) {
			if _, labeled := wrong.ObjectLabels[obj]; !labeled {
				wrong.LabelObject(obj, c)
				break
			}
		}
		for _, j := range gt.Dims[other] {
			if !slices.Contains(gt.Dims[c], j) {
				wrong.LabelDim(j, c)
				break
			}
		}
	}
	return out
}

func hashInts(h hash.Hash, v []int) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	h.Write(buf[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
}

func hashFloats(h hash.Hash, v []float64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
	h.Write(buf[:])
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
}
