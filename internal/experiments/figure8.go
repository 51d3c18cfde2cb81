package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/proclus"
	"repro/internal/synth"
)

// timeRuns returns the wall-clock seconds of `repeats` repeated runs of fn,
// matching the paper's "execution time of 10 repeated runs" metric.
func timeRuns(repeats int, fn func(seed int64) error) (float64, error) {
	start := time.Now()
	for r := 0; r < repeats; r++ {
		if err := fn(int64(r)); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Seconds(), nil
}

// scalability generates a dataset for each (n, d) point and times SSPC and
// PROCLUS on it.
func scalability(ctx context.Context, cfg Config, points [][2]int, label func(p [2]int) string, title string) (*Table, error) {
	cfg = cfg.normalized()
	const k, lreal = 5, 10
	t := &Table{
		Title:   title,
		XLabel:  "size",
		Columns: []string{"SSPC sec", "PROCLUS sec"},
	}
	for _, p := range points {
		n, d := p[0], p[1]
		gt, err := synth.Generate(synth.Config{
			N: n, D: d, K: k, AvgDims: lreal, Seed: cfg.Seed + int64(n+d),
		})
		if err != nil {
			return nil, err
		}
		// Workers = 1 keeps the timed runs fully serial — with the default
		// (all CPUs) the whole budget would flow into the intra-restart
		// chunked loops and the timing series would depend on the core
		// count, breaking comparability with the paper's serial curves.
		sspcSec, err := timeRuns(cfg.Repeats, func(seed int64) error {
			opts := core.DefaultOptions(k)
			opts.Seed = seed
			opts.Workers = 1
			_, err := core.RunContext(ctx, gt.Data, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		proclusSec, err := timeRuns(cfg.Repeats, func(seed int64) error {
			opts := proclus.DefaultOptions(k, lreal)
			opts.Seed = seed
			opts.Workers = 1
			_, err := proclus.RunContext(ctx, gt.Data, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.Add(label(p), sspcSec, proclusSec)
	}
	return t, nil
}

// Figure8aContext regenerates the dataset-size scalability series: execution
// time of repeated SSPC and PROCLUS runs as n grows with d fixed (§5.5).
//
// The timed fits follow the shared cancellation contract.
func Figure8aContext(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	base := scaleInt(1000, cfg.Scale, 250)
	points := [][2]int{
		{base, 100}, {2 * base, 100}, {4 * base, 100}, {8 * base, 100},
	}
	return scalability(ctx, cfg, points,
		func(p [2]int) string { return fmt.Sprintf("n=%d", p[0]) },
		fmt.Sprintf("Figure 8a: execution time of %d repeated runs vs n (d=100)", cfg.normalized().Repeats))
}

// Figure8bContext regenerates the dimensionality scalability series:
// execution time as d grows with n fixed (§5.5).
//
// The timed fits follow the shared cancellation contract.
func Figure8bContext(ctx context.Context, cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	baseN := scaleInt(1000, cfg.Scale, 250)
	points := [][2]int{
		{baseN, 100}, {baseN, 200}, {baseN, 400}, {baseN, 800},
	}
	return scalability(ctx, cfg, points,
		func(p [2]int) string { return fmt.Sprintf("d=%d", p[1]) },
		fmt.Sprintf("Figure 8b: execution time of %d repeated runs vs d (n=%d)", cfg.normalized().Repeats, baseN))
}
