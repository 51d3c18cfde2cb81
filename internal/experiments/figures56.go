package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/stats"
	"repro/internal/synth"
)

// knowledgeARI runs SSPC once with knowledge sampled under kcfg and returns
// the ARI with labeled objects removed first — the paper's protocol for the
// §5.3 experiments.
func knowledgeARI(ctx context.Context, gt *synth.GroundTruth, k int, kcfg synth.KnowledgeConfig, runSeed int64) (float64, error) {
	kn, err := synth.SampleKnowledge(gt, kcfg)
	if err != nil {
		return 0, err
	}
	opts := core.DefaultOptions(k)
	opts.M = 0.5 // the paper sets m = 0.5 for this experiment
	opts.Knowledge = kn
	opts.Seed = runSeed
	opts.Workers = 1 // repeats carry the concurrency; see sspcBest
	res, err := core.RunContext(ctx, gt.Data, opts)
	if err != nil {
		return 0, err
	}
	ft, fp := eval.Filter(gt.Labels, res.Assignments, kn.LabeledObjectSet())
	return eval.ARI(ft, fp)
}

// medianKnowledgeARI repeats knowledgeARI with independent knowledge draws
// and returns the median, as the paper reports ("each point ... is the
// median of 10 repeated runs with 10 independent sets of inputs"). The
// repeats run concurrently; each keeps its historical knowledge and run
// seeds, so the median is identical for every worker count.
func medianKnowledgeARI(ctx context.Context, gt *synth.GroundTruth, k int, kcfg synth.KnowledgeConfig, cfg Config) (float64, error) {
	vals, err := engine.Run(ctx, cfg.Repeats, cfg.Workers, cfg.Seed, 0, nil,
		func(r int, _ *stats.RNG, _ int) (float64, error) {
			rcfg := kcfg
			rcfg.Seed = cfg.Seed + int64(1000*r)
			return knowledgeARI(ctx, gt, k, rcfg, cfg.Seed+int64(r))
		})
	if err != nil {
		return 0, err
	}
	return stats.Median(vals), nil
}

// fig5Dataset generates the §5.3 gene-expression-like dataset: n = 150,
// d = 3000, k = 5, l_real = 30 (1% of d), scaled by cfg.Scale (d has a
// floor of 600 to keep the 1% regime meaningful).
func fig5Dataset(cfg Config) (*synth.GroundTruth, error) {
	d := scaleInt(3000, cfg.Scale, 600)
	gt, err := synth.Generate(synth.Config{
		N: 150, D: d, K: 5, AvgDims: d / 100, Seed: cfg.Seed + 50,
	})
	if err != nil {
		return nil, err
	}
	return gt, nil
}

// Figure5Context regenerates the input-size sweep at full coverage: accuracy
// of SSPC with 0..8 labeled objects and/or dimensions per cluster on the 1%
// dimensionality dataset.
//
// Every fit follows the shared cancellation contract.
func Figure5Context(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	gt, err := fig5Dataset(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 5: SSPC ARI vs input size at coverage=1 (n=%d, d=%d, l_real=%d)",
			gt.Data.N(), gt.Data.D(), gt.Config.AvgDims),
		XLabel:  "input size",
		Columns: []string{"objects", "dims", "both"},
	}
	kinds := []synth.KnowledgeKind{synth.ObjectsOnly, synth.DimsOnly, synth.ObjectsAndDims}
	for size := 0; size <= 8; size++ {
		cells := make([]float64, 0, 3)
		for _, kind := range kinds {
			kcfg := synth.KnowledgeConfig{Kind: kind, Coverage: 1, Size: size}
			if size == 0 {
				kcfg.Kind = synth.NoKnowledge
			}
			a, err := medianKnowledgeARI(ctx, gt, 5, kcfg, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, a)
		}
		t.Add(fmt.Sprintf("%d", size), cells...)
	}
	return t, nil
}

// Figure6Context regenerates the coverage sweep at input size 6: accuracy of
// SSPC when only a fraction of the classes receive inputs.
//
// Every fit follows the shared cancellation contract.
func Figure6Context(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	gt, err := fig5Dataset(cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Figure 6: SSPC ARI vs knowledge coverage at input size 6 (n=%d, d=%d)",
			gt.Data.N(), gt.Data.D()),
		XLabel:  "coverage",
		Columns: []string{"objects", "dims", "both"},
	}
	kinds := []synth.KnowledgeKind{synth.ObjectsOnly, synth.DimsOnly, synth.ObjectsAndDims}
	for cov := 0; cov <= 10; cov += 2 {
		coverage := float64(cov) / 10
		cells := make([]float64, 0, 3)
		for _, kind := range kinds {
			kcfg := synth.KnowledgeConfig{Kind: kind, Coverage: coverage, Size: 6}
			if coverage == 0 {
				kcfg.Kind = synth.NoKnowledge
			}
			a, err := medianKnowledgeARI(ctx, gt, 5, kcfg, cfg)
			if err != nil {
				return nil, err
			}
			cells = append(cells, a)
		}
		t.Add(fmt.Sprintf("%.1f", coverage), cells...)
	}
	return t, nil
}
