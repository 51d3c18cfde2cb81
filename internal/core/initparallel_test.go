package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/synth"
)

// TestInitializeSlotsBitIdentical: initialization's chunked loops — the
// density histograms and the SelectDim kernel split by column range, the
// seed grids split by grid — build the same seed groups at 1, 2, 3 and 4
// worker slots. It runs on the fit-paper shape (public groups only, so the
// histograms and absolute-peak grids) and on the fit-lowdim shape with
// labeled objects and dimensions for every class (the kernel on the labeled
// objects, grids hill-climbed from their lazy median), over flat and
// mmap-backed storage. Every group's seeds, dims, class and medianOnDims
// must equal the one-slot flat run's, bit for bit.
func TestInitializeSlotsBitIdentical(t *testing.T) {
	shapes := []struct {
		name      string
		cfg       synth.Config
		knowledge bool
	}{
		{"paper", synth.Config{N: 4000, D: 100, K: 5, AvgDims: 10, Seed: 3}, false},
		{"lowdim", synth.Config{N: 150, D: 3000, K: 5, AvgDims: 30, Seed: 3}, true},
	}
	for _, s := range shapes {
		gt := generate(t, s.cfg)
		opts := DefaultOptions(s.cfg.K)
		opts.Seed = 9
		if s.knowledge {
			kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
				Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			opts.Knowledge = kn
		}
		opts, err := opts.normalized(gt.Data)
		if err != nil {
			t.Fatal(err)
		}
		var want []*seedGroup
		for _, label := range []string{"flat", "mmap"} {
			ds := storageVariants(t, gt.Data, 3)[label]
			for slots := 1; slots <= 4; slots++ {
				name := fmt.Sprintf("%s/%s/slots=%d", s.name, label, slots)
				private, public, err := initialize(context.Background(), ds, opts, newThresholds(ds, opts),
					newTestRNGCore(opts.Seed), slotScratch(ds.D(), slots))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := groupsInOrder(private, public)
				if want == nil {
					want = got
					continue
				}
				if err := sameGroups(got, want); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}

// groupsInOrder lists the private groups by class, then the public groups
// in creation order.
func groupsInOrder(private map[int]*seedGroup, public []*seedGroup) []*seedGroup {
	classes := make([]int, 0, len(private))
	for c := range private {
		classes = append(classes, c)
	}
	slices.Sort(classes)
	out := make([]*seedGroup, 0, len(private)+len(public))
	for _, c := range classes {
		out = append(out, private[c])
	}
	return append(out, public...)
}

// sameGroups reports the first way got differs from want.
func sameGroups(got, want []*seedGroup) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d groups, want %d", len(got), len(want))
	}
	for u, g := range got {
		w := want[u]
		switch {
		case g.class != w.class:
			return fmt.Errorf("group %d: class %d, want %d", u, g.class, w.class)
		case !slices.Equal(g.seeds, w.seeds):
			return fmt.Errorf("group %d: seeds %v, want %v", u, g.seeds, w.seeds)
		case !slices.Equal(g.dims, w.dims):
			return fmt.Errorf("group %d: dims %v, want %v", u, g.dims, w.dims)
		case !slices.EqualFunc(g.medianOnDims, w.medianOnDims, func(a, b float64) bool {
			return math.Float64bits(a) == math.Float64bits(b)
		}):
			return fmt.Errorf("group %d: medianOnDims %v, want %v", u, g.medianOnDims, w.medianOnDims)
		}
	}
	return nil
}
