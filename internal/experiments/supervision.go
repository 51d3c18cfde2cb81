package experiments

import (
	"context"
	"fmt"

	"repro/internal/bicluster"
	"repro/internal/clique"
	"repro/internal/cluster"
	"repro/internal/copkmeans"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seedkmeans"
	"repro/internal/synth"
)

// SupervisionStylesContext compares the three ways of consuming the same
// labeled objects — pairwise constraints (COP-KMeans), centroid seeding
// (Seeded-/Constrained-KMeans) and SSPC's seed groups — as the number of
// labeled objects per class grows. One knowledge draw per x-point feeds all
// four columns through the shared core.Supervision conversions, so every
// algorithm sees exactly the same information in its own form (the
// comparison the paper's §2.2 survey frames).
//
// The dataset keeps the cluster dimensionality close to d: the three
// k-means-family baselines are full-space algorithms, and the point of the
// table is how supervision styles compare, not how projected clusters
// defeat full-space methods.
//
// Every cell's fits follow the shared cancellation contract.
func SupervisionStylesContext(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	n := scaleInt(600, cfg.Scale, 200)
	const d, k, lreal = 20, 3, 16
	gt, err := synth.Generate(synth.Config{
		N: n, D: d, K: k, AvgDims: lreal, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Supervision styles: ARI vs labeled objects per class (n=%d, d=%d, k=%d)", n, d, k),
		XLabel:  "labeled/class",
		Columns: []string{"COP-KMeans", "Seeded-KM", "Constr-KM", "SSPC(m)"},
	}
	inner := cfg
	inner.Workers = 1
	for _, size := range []int{2, 4, 6, 8} {
		kn, err := synth.SampleKnowledge(gt, synth.KnowledgeConfig{
			Kind: synth.ObjectsOnly, Coverage: 1, Size: size,
			Seed: cfg.Seed + int64(size),
		})
		if err != nil {
			return nil, err
		}
		sup := &core.Supervision{Knowledge: kn}
		must, cannot, err := sup.AsConstraints()
		if err != nil {
			return nil, err
		}
		cons := &copkmeans.Constraints{MustLink: must, CannotLink: cannot}

		var copARI, seededARI, constrARI, sspcARI float64
		size := size
		err = parallelCells(ctx, cfg.Workers,
			func() error {
				res, err := bestOf(ctx, inner.Repeats, inner.Workers, inner.EarlyStop, inner.Seed, func(s int64) (*cluster.Result, error) {
					opts := copkmeans.DefaultOptions(k)
					opts.Seed = s
					opts.Workers = 1
					return copkmeans.RunContext(ctx, gt.Data, cons, opts)
				})
				if err != nil {
					return err
				}
				copARI, err = ariOf(gt, res)
				return err
			},
			func() error {
				res, err := seedKMeansBest(ctx, gt, kn, k, false, inner)
				if err != nil {
					return err
				}
				seededARI, err = ariOf(gt, res)
				return err
			},
			func() error {
				res, err := seedKMeansBest(ctx, gt, kn, k, true, inner)
				if err != nil {
					return err
				}
				constrARI, err = ariOf(gt, res)
				return err
			},
			func() error {
				res, err := sspcBest(ctx, gt, k, core.SchemeM, 0.5, kn, inner)
				if err != nil {
					return err
				}
				sspcARI, err = ariOf(gt, res)
				return err
			},
		)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", size), copARI, seededARI, constrARI, sspcARI)
	}
	return t, nil
}

// seedKMeansBest runs Seeded-/Constrained-KMeans best-of-repeats (by cost),
// serial inside the cell like sspcBest.
func seedKMeansBest(ctx context.Context, gt *synth.GroundTruth, kn *dataset.Knowledge, k int, constrained bool, cfg Config) (*cluster.Result, error) {
	return bestOf(ctx, cfg.Repeats, cfg.Workers, cfg.EarlyStop, cfg.Seed, func(s int64) (*cluster.Result, error) {
		opts := seedkmeans.DefaultOptions(k)
		opts.Constrained = constrained
		opts.Seed = s
		opts.Workers = 1
		return seedkmeans.RunContext(ctx, gt.Data, kn, opts)
	})
}

// SubspaceBaselinesContext compares the related-problem baselines the paper
// surveys in §2.1 — CLIQUE (subspace clustering) and Cheng–Church
// biclustering — against unsupervised SSPC as the average cluster
// dimensionality grows on a low-d dataset (CLIQUE's bottom-up search is
// exponential in the subspace dimensionality, so the comparison lives where
// all three are feasible).
//
// Every cell's fits follow the shared cancellation contract.
func SubspaceBaselinesContext(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	n := scaleInt(400, cfg.Scale, 200)
	const d, k = 10, 3
	t := &Table{
		Title:   fmt.Sprintf("Subspace baselines: ARI vs average cluster dimensionality (n=%d, d=%d, k=%d)", n, d, k),
		XLabel:  "l_real",
		Columns: []string{"CLIQUE", "Bicluster", "SSPC(m)"},
	}
	inner := cfg
	inner.Workers = 1
	for _, lreal := range []int{2, 4, 6, 8} {
		gt, err := synth.Generate(synth.Config{
			N: n, D: d, K: k, AvgDims: lreal,
			LocalSDMinFrac: 0.01, LocalSDMaxFrac: 0.03,
			Seed: cfg.Seed + int64(lreal),
		})
		if err != nil {
			return nil, err
		}
		var cliqueARI, biARI, sspcARI float64
		lreal := lreal
		err = parallelCells(ctx, cfg.Workers,
			func() error {
				opts := clique.DefaultOptions()
				opts.Tau = 0.08
				opts.MaxClusters = k
				opts.Workers = 1
				_, res, err := clique.RunContext(ctx, gt.Data, opts)
				if err != nil {
					return err
				}
				cliqueARI, err = ariOf(gt, res)
				return err
			},
			func() error {
				res, err := bestOf(ctx, inner.Repeats, inner.Workers, inner.EarlyStop, inner.Seed, func(s int64) (*cluster.Result, error) {
					opts := bicluster.DefaultOptions(k, 50)
					opts.Seed = s
					opts.Workers = 1
					_, res, err := bicluster.RunContext(ctx, gt.Data, opts)
					return res, err
				})
				if err != nil {
					return err
				}
				biARI, err = ariOf(gt, res)
				return err
			},
			func() error {
				res, err := sspcBest(ctx, gt, k, core.SchemeM, 0.5, nil, inner)
				if err != nil {
					return err
				}
				sspcARI, err = ariOf(gt, res)
				return err
			},
		)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("%d", lreal), cliqueARI, biARI, sspcARI)
	}
	return t, nil
}
