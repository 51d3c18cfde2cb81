package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/stats"
	"repro/internal/synth"
)

// NoisyInputsContext studies the paper's first §6 extension (allowing
// incorrect inputs): a growing fraction of the labeled objects is mislabeled,
// and SSPC runs (a) trusting the noisy knowledge and (b) after validating and
// discarding suspect entries with ValidateKnowledge. Labeled objects are
// removed before computing the ARI, as in the §5.3 protocol.
//
// Every fit follows the shared cancellation contract.
func NoisyInputsContext(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	d := scaleInt(1000, cfg.Scale, 400)
	gt, err := synth.Generate(synth.Config{
		N: 150, D: d, K: 5, AvgDims: d / 100 * 2, Seed: cfg.Seed + 90,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("§6 extension: SSPC ARI vs fraction of mislabeled objects (n=150, d=%d, size=6)", d),
		XLabel:  "corrupt%",
		Columns: []string{"trusting", "validated", "flagged"},
	}
	type repeatOutcome struct {
		trust, valid, flagged float64
	}
	for pct := 0; pct <= 50; pct += 10 {
		pct := pct
		// The repeats are independent (each draws and corrupts its own
		// knowledge copy); run them concurrently with their historical
		// seeds, so the medians match the serial protocol exactly.
		outcomes, err := engine.Run(ctx, cfg.Repeats, cfg.Workers, cfg.Seed, 0, nil,
			func(r int, _ *stats.RNG, _ int) (repeatOutcome, error) {
				// Objects-only knowledge: labeled dimensions would mask the
				// object corruption entirely (they anchor the grids on their
				// own), which hides exactly the effect this experiment
				// studies.
				kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
					Kind: synth.ObjectsOnly, Coverage: 1, Size: 6,
					Seed: cfg.Seed + int64(100*r+pct),
				})
				if err != nil {
					return repeatOutcome{}, err
				}
				corruptObjectLabels(gt, kn, float64(pct)/100, cfg.Seed+int64(r+pct))

				opts := core.DefaultOptions(5)
				opts.Knowledge = kn
				opts.Seed = cfg.Seed + int64(r)
				opts.Workers = 1 // repeats carry the concurrency; see sspcBest

				trusting, err := core.RunContext(ctx, gt.Data, opts)
				if err != nil {
					return repeatOutcome{}, err
				}
				drop := kn.LabeledObjectSet()
				ft, fp := eval.Filter(gt.Labels, trusting.Assignments, drop)
				trust, err := eval.ARI(ft, fp)
				if err != nil {
					return repeatOutcome{}, err
				}

				validated, report, err := core.RunValidatedContext(ctx, gt.Data, opts, 2)
				if err != nil {
					return repeatOutcome{}, err
				}
				ft, fp = eval.Filter(gt.Labels, validated.Assignments, drop)
				valid, err := eval.ARI(ft, fp)
				if err != nil {
					return repeatOutcome{}, err
				}
				flagged := float64(len(report.SuspectObjects) + len(report.SuspectDims))
				return repeatOutcome{trust: trust, valid: valid, flagged: flagged}, nil
			})
		if err != nil {
			return nil, err
		}
		trustVals := make([]float64, 0, cfg.Repeats)
		validVals := make([]float64, 0, cfg.Repeats)
		flaggedTotal := 0.0
		for _, o := range outcomes {
			trustVals = append(trustVals, o.trust)
			validVals = append(validVals, o.valid)
			flaggedTotal += o.flagged
		}
		t.Add(fmt.Sprintf("%d%%", pct),
			stats.Median(trustVals), stats.Median(validVals), flaggedTotal/float64(cfg.Repeats))
	}
	return t, nil
}

// corruptObjectLabels reassigns a fraction of the labeled objects to a
// wrong class (keeping the object ids, breaking the labels).
func corruptObjectLabels(gt *synth.GroundTruth, kn *dataset.Knowledge, frac float64, seed int64) {
	if frac <= 0 {
		return
	}
	rng := stats.NewRNG(seed)
	var objs []int
	for obj := range kn.ObjectLabels {
		objs = append(objs, obj)
	}
	sort.Ints(objs) // deterministic order before sampling
	nCorrupt := int(frac * float64(len(objs)))
	for _, idx := range rng.Sample(len(objs), nCorrupt) {
		obj := objs[idx]
		truth := gt.Labels[obj]
		wrong := (truth + 1 + rng.Intn(gt.Config.K-1)) % gt.Config.K
		kn.ObjectLabels[obj] = wrong
	}
}
