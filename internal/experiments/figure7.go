package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/harp"
	"repro/internal/synth"
)

// Figure7Context regenerates the multiple-groupings experiment (§5.4): two
// independent clusterings of the same 150 objects are concatenated into one
// dataset (paper: 1500 + 1500 = 3000 dimensions, 1% dimensionality each).
// HARP, PROCLUS (with the true l), raw SSPC, and SSPC guided by inputs from
// each grouping are evaluated against both ground truths.
//
// Every fit follows the shared cancellation contract.
func Figure7Context(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	half := scaleInt(1500, cfg.Scale, 300)
	lreal := half / 50 // 1% of the combined dimensionality = 2% of each half
	const n, k = 150, 5
	mg, err := synth.GenerateMultiGroup(
		synth.Config{N: n, D: half, K: k, AvgDims: lreal, Seed: cfg.Seed + 70},
		synth.Config{N: n, D: half, K: k, AvgDims: lreal, Seed: cfg.Seed + 71},
	)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 7: two possible groupings (n=%d, d=%d, l_real=%d each)",
			n, mg.Data.D(), lreal),
		XLabel:  "algorithm",
		Columns: []string{"ARI grp1", "ARI grp2"},
	}

	both := func(res *cluster.Result) (float64, float64, error) {
		a1, err := eval.ARI(mg.First.Labels, res.Assignments)
		if err != nil {
			return 0, 0, err
		}
		a2, err := eval.ARI(mg.Second.Labels, res.Assignments)
		return a1, a2, err
	}
	bothFiltered := func(res *cluster.Result, drop map[int]bool) (float64, float64, error) {
		f1, p1 := eval.Filter(mg.First.Labels, res.Assignments, drop)
		a1, err := eval.ARI(f1, p1)
		if err != nil {
			return 0, 0, err
		}
		f2, p2 := eval.Filter(mg.Second.Labels, res.Assignments, drop)
		a2, err := eval.ARI(f2, p2)
		return a1, a2, err
	}

	// HARP (deterministic).
	hopts := harp.DefaultOptions(k)
	hr, err := harp.RunContext(ctx, mg.Data, hopts)
	if err != nil {
		return nil, err
	}
	h1, h2, err := both(hr)
	if err != nil {
		return nil, err
	}
	t.Add("HARP", h1, h2)

	// PROCLUS with the correct l.
	pr, err := proclusBest(ctx, mg.First, k, lreal, cfg)
	if err != nil {
		return nil, err
	}
	p1, p2, err := both(pr)
	if err != nil {
		return nil, err
	}
	t.Add("PROCLUS", p1, p2)

	// Raw SSPC.
	raw, err := sspcBest(ctx, mg.First, k, core.SchemeM, 0.5, nil, cfg)
	if err != nil {
		return nil, err
	}
	r1, r2, err := both(raw)
	if err != nil {
		return nil, err
	}
	t.Add("SSPC raw", r1, r2)

	// SSPC guided by each grouping's knowledge (both kinds, size 6, full
	// coverage), evaluated with labeled objects removed.
	for gi, truth := range []*synth.GroundTruth{mg.First, mg.Second} {
		kn, err := synth.SampleKnowledge(truth, synth.KnowledgeConfig{
			Kind: synth.ObjectsAndDims, Coverage: 1, Size: 6,
			Seed: cfg.Seed + int64(80+gi),
		})
		if err != nil {
			return nil, err
		}
		res, err := bestOf(ctx, cfg.Repeats, cfg.Workers, cfg.EarlyStop, cfg.Seed, func(s int64) (*cluster.Result, error) {
			opts := core.DefaultOptions(k)
			opts.M = 0.5
			opts.Knowledge = kn
			opts.Seed = s
			opts.Workers = 1 // repeats carry the concurrency; see sspcBest
			return core.RunContext(ctx, mg.Data, opts)
		})
		if err != nil {
			return nil, err
		}
		a1, a2, err := bothFiltered(res, kn.LabeledObjectSet())
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("SSPC+input%d", gi+1), a1, a2)
	}
	return t, nil
}
