package experiments

import (
	"context"
	"fmt"

	"repro/internal/clarans"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/harp"
	"repro/internal/proclus"
	"repro/internal/synth"
)

// ariOf computes the paper's ARI of a result against the ground truth.
func ariOf(gt *synth.GroundTruth, res *cluster.Result) (float64, error) {
	return eval.ARI(gt.Labels, res.Assignments)
}

// sspcBest runs SSPC best-of-repeats (by φ) for one parameter value. The
// runs inside a cell stay fully serial (Workers = 1): the harness manages
// concurrency at the cell/repeat level, and an unset Workers would hand
// every repeat GOMAXPROCS intra-restart goroutines — squaring the total
// concurrency cfg.Workers is meant to bound.
func sspcBest(ctx context.Context, gt *synth.GroundTruth, k int, scheme core.ThresholdScheme, param float64,
	kn *dataset.Knowledge, cfg Config) (*cluster.Result, error) {
	return bestOf(ctx, cfg.Repeats, cfg.Workers, cfg.EarlyStop, cfg.Seed, func(s int64) (*cluster.Result, error) {
		opts := core.DefaultOptions(k)
		opts.Scheme = scheme
		if scheme == core.SchemeM {
			opts.M = param
		} else {
			opts.P = param
		}
		opts.Knowledge = kn
		opts.Seed = s
		opts.Workers = 1
		return core.RunContext(ctx, gt.Data, opts)
	})
}

// proclusBest runs PROCLUS best-of-repeats (by its cost) for one l, serial
// inside the cell like sspcBest.
func proclusBest(ctx context.Context, gt *synth.GroundTruth, k, l int, cfg Config) (*cluster.Result, error) {
	return bestOf(ctx, cfg.Repeats, cfg.Workers, cfg.EarlyStop, cfg.Seed, func(s int64) (*cluster.Result, error) {
		opts := proclus.DefaultOptions(k, l)
		opts.Seed = s
		opts.Workers = 1
		return proclus.RunContext(ctx, gt.Data, opts)
	})
}

// bestARIOverParams returns the highest ARI across parameter values, where
// each value's result is the best-of-repeats by the algorithm's own
// objective — exactly the paper's Figure 3 protocol.
func bestARIOverParams(gt *synth.GroundTruth, run func(param float64) (*cluster.Result, error), params []float64) (float64, error) {
	best := -1.0
	for _, p := range params {
		res, err := run(p)
		if err != nil {
			return 0, err
		}
		a, err := ariOf(gt, res)
		if err != nil {
			return 0, err
		}
		if a > best {
			best = a
		}
	}
	return best, nil
}

// proclusLValues returns the 9 l values tried around the true average
// dimensionality, clipped to [2, d].
func proclusLValues(lreal, d int) []int {
	var out []int
	for delta := -8; delta <= 8; delta += 2 {
		l := lreal + delta
		if l < 2 {
			l = 2
		}
		if l > d {
			l = d
		}
		dup := false
		for _, v := range out {
			if v == l {
				dup = true
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}

var (
	fig3MValues = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	fig3PValues = []float64{0.01, 0.05, 0.1, 0.15, 0.2}
)

// Figure3Context regenerates the raw-accuracy comparison: best ARI of
// CLARANS, HARP, PROCLUS, SSPC(m) and SSPC(p) on datasets with n = 1000, d =
// 100, k = 5 and average cluster dimensionality 5..40 (§5.1).
//
// Every cell's fits follow the shared cancellation contract.
func Figure3Context(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	n := scaleInt(1000, cfg.Scale, 300)
	const d, k = 100, 5
	t := &Table{
		Title:   fmt.Sprintf("Figure 3: best raw ARI vs average cluster dimensionality (n=%d, d=%d, k=%d)", n, d, k),
		XLabel:  "l_real",
		Columns: []string{"CLARANS", "HARP", "PROCLUS", "SSPC(m)", "SSPC(p)"},
	}
	for lreal := 5; lreal <= 40; lreal += 5 {
		gt, err := synth.Generate(synth.Config{
			N: n, D: d, K: k, AvgDims: lreal, Seed: cfg.Seed + int64(lreal),
		})
		if err != nil {
			return nil, err
		}

		// The five algorithm columns of this x-point are independent cells;
		// run them concurrently. The cells' inner repeats run serially
		// (inner.Workers = 1) so the total concurrency honors cfg.Workers
		// instead of squaring it.
		inner := cfg
		inner.Workers = 1
		var claransARI, harpARI, proclusARI, sspcM, sspcP float64
		lreal := lreal
		err = parallelCells(ctx, cfg.Workers,
			func() error {
				clr, err := bestOf(ctx, inner.Repeats, inner.Workers, inner.EarlyStop, inner.Seed, func(s int64) (*cluster.Result, error) {
					opts := clarans.DefaultOptions(k)
					opts.Seed = s
					opts.Workers = 1
					return clarans.RunContext(ctx, gt.Data, opts)
				})
				if err != nil {
					return err
				}
				claransARI, err = ariOf(gt, clr)
				return err
			},
			func() error {
				hopts := harp.DefaultOptions(k)
				hopts.Workers = 1
				hr, err := harp.RunContext(ctx, gt.Data, hopts)
				if err != nil {
					return err
				}
				harpARI, err = ariOf(gt, hr)
				return err
			},
			func() error {
				var lParams []float64
				for _, l := range proclusLValues(lreal, d) {
					lParams = append(lParams, float64(l))
				}
				var err error
				proclusARI, err = bestARIOverParams(gt, func(p float64) (*cluster.Result, error) {
					return proclusBest(ctx, gt, k, int(p), inner)
				}, lParams)
				return err
			},
			func() error {
				var err error
				sspcM, err = bestARIOverParams(gt, func(p float64) (*cluster.Result, error) {
					return sspcBest(ctx, gt, k, core.SchemeM, p, nil, inner)
				}, fig3MValues)
				return err
			},
			func() error {
				var err error
				sspcP, err = bestARIOverParams(gt, func(p float64) (*cluster.Result, error) {
					return sspcBest(ctx, gt, k, core.SchemeP, p, nil, inner)
				}, fig3PValues)
				return err
			},
		)
		if err != nil {
			return nil, err
		}

		t.Add(fmt.Sprintf("%d", lreal), claransARI, harpARI, proclusARI, sspcM, sspcP)
	}
	return t, nil
}

var (
	fig4LValues = []int{2, 4, 6, 8, 10, 12, 14, 16, 18}
	fig4MValues = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	fig4PValues = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}
)

// Figure4Context regenerates the parameter-sensitivity comparison on the
// l_real = 10 dataset: PROCLUS across 9 values of l versus SSPC across 9
// values of m and of p (§5.1, Figure 4). Each cell is the best-of-repeats (by
// the algorithm's own objective) ARI at that parameter value.
//
// Every cell's fits follow the shared cancellation contract.
func Figure4Context(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	n := scaleInt(1000, cfg.Scale, 300)
	const d, k, lreal = 100, 5, 10
	gt, err := synth.Generate(synth.Config{
		N: n, D: d, K: k, AvgDims: lreal, Seed: cfg.Seed + lreal,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Figure 4: ARI vs parameter value at l_real=%d (n=%d, d=%d)", lreal, n, d),
		XLabel:  "param idx",
		Columns: []string{"PROCLUS(l)", "SSPC(m)", "SSPC(p)"},
	}
	// As in Figure3: cells fan out, inner repeats stay serial so the total
	// concurrency honors cfg.Workers instead of squaring it.
	inner := cfg
	inner.Workers = 1
	for i := 0; i < 9; i++ {
		var proclusARI, mARI, pARI float64
		i := i
		err := parallelCells(ctx, cfg.Workers,
			func() error {
				pr, err := proclusBest(ctx, gt, k, fig4LValues[i], inner)
				if err != nil {
					return err
				}
				proclusARI, err = ariOf(gt, pr)
				return err
			},
			func() error {
				sm, err := sspcBest(ctx, gt, k, core.SchemeM, fig4MValues[i], nil, inner)
				if err != nil {
					return err
				}
				mARI, err = ariOf(gt, sm)
				return err
			},
			func() error {
				sp, err := sspcBest(ctx, gt, k, core.SchemeP, fig4PValues[i], nil, inner)
				if err != nil {
					return err
				}
				pARI, err = ariOf(gt, sp)
				return err
			},
		)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprintf("l=%d/m=%.1f/p=%.3f", fig4LValues[i], fig4MValues[i], fig4PValues[i]),
			proclusARI, mARI, pARI)
	}
	return t, nil
}

// OutlierImmunityContext regenerates the §5.2 study (whose figures the paper
// omits): SSPC accuracy and detected-outlier counts as the injected outlier
// fraction grows from 0% to 25%.
//
// Every cell's fits follow the shared cancellation contract.
func OutlierImmunityContext(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	n := scaleInt(1000, cfg.Scale, 300)
	const d, k, lreal = 100, 5, 10
	t := &Table{
		Title:   fmt.Sprintf("Outlier immunity (§5.2): SSPC vs injected outliers (n=%d, d=%d, l_real=%d)", n, d, lreal),
		XLabel:  "outlier%",
		Columns: []string{"ARI", "detected", "true"},
	}
	for pct := 0; pct <= 25; pct += 5 {
		gt, err := synth.Generate(synth.Config{
			N: n, D: d, K: k, AvgDims: lreal,
			OutlierFrac: float64(pct) / 100, Seed: cfg.Seed + int64(pct),
		})
		if err != nil {
			return nil, err
		}
		res, err := sspcBest(ctx, gt, k, core.SchemeM, 0.5, nil, cfg)
		if err != nil {
			return nil, err
		}
		a, err := ariOf(gt, res)
		if err != nil {
			return nil, err
		}
		_, detected := res.Sizes()
		t.Add(fmt.Sprintf("%d%%", pct), a, float64(detected), float64(gt.NumOutliers()))
	}
	return t, nil
}
