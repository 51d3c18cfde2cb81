package core

import (
	"context"
	"testing"

	"repro/internal/synth"
)

// TestDebugSeedGroups inspects initialization quality at 1% dimensionality.
// It is a diagnostic; assertions are loose.
func TestDebugSeedGroups(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 1000, K: 5, AvgDims: 10, Seed: 6})
	kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
		Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(5)
	opts.Knowledge = kn
	opts.Seed = 1000
	opts, err = opts.normalized(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	thr := newThresholds(gt.Data, opts)
	rng := newTestRNGCore(opts.Seed)
	private, public, err := initialize(context.Background(), gt.Data, opts, thr, rng, slotScratch(gt.Data.D(), 1))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 5; c++ {
		g, ok := private[c]
		if !ok {
			t.Errorf("no private group for class %d", c)
			continue
		}
		pure := 0
		for _, s := range g.seeds {
			if gt.Labels[s] == c {
				pure++
			}
		}
		trueSet := map[int]bool{}
		for _, j := range gt.Dims[c] {
			trueSet[j] = true
		}
		tp := 0
		for _, j := range g.dims {
			if trueSet[j] {
				tp++
			}
		}
		t.Logf("class %d: %d seeds (%d pure), %d dims (%d true of %d relevant)",
			c, len(g.seeds), pure, len(g.dims), tp, len(gt.Dims[c]))
	}
	t.Logf("public groups: %d", len(public))
}
