package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/synth"
)

// fitSpec is the data shape of a fit workload.
type fitSpec struct {
	data synth.Config
	// knowledge supplies labeled objects and dimensions for every class, five
	// of each, as the paper's Figure 5/6 runs do.
	knowledge bool
}

var (
	// fitPaper is the §5.1 shape the §5.5 scalability runs grow n on.
	fitPaper = fitSpec{data: synth.Config{N: 4000, D: 100, K: 5, AvgDims: 10}}
	// fitLowdim is the Figure 5/6 case: clusters relevant on 1% of 3000
	// dimensions.
	fitLowdim = fitSpec{data: synth.Config{N: 150, D: 3000, K: 5, AvgDims: 30}, knowledge: true}
)

// fitWorkers is the worker budget of every timed fit.
const fitWorkers = 2

// setupRuns is how often an end-to-end run repeats its set-up; setup_s is
// the median, so one slow set-up does not move it.
const setupRuns = 5

// fitInputs is a workload's data and the options its fits run with.
type fitInputs struct {
	gt   *synth.GroundTruth
	opts core.Options // the timed fits' options; fit i runs with Seed+i
	// ref is the first timed fit computed again with one worker. The
	// determinism contract says the timed fit must match it exactly.
	ref *cluster.Result
}

// inputs generates the workload's data from seed.
func (s fitSpec) inputs(seed int64) (*fitInputs, error) {
	cfg := s.data
	cfg.Seed = seed
	gt, err := synth.Generate(cfg)
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(cfg.K)
	opts.Seed = seed
	opts.Workers = fitWorkers
	if s.knowledge {
		opts.Knowledge, err = synth.SampleKnowledge(gt, synth.KnowledgeConfig{
			Kind: synth.ObjectsAndDims, Coverage: 1, Size: 5, Seed: seed})
		if err != nil {
			return nil, err
		}
	}
	return &fitInputs{gt: gt, opts: opts}, nil
}

// setup is a fit workload's set-up: its data and the one-worker reference
// fit.
func (s fitSpec) setup(ctx context.Context, seed int64) (*fitInputs, error) {
	in, err := s.inputs(seed)
	if err != nil {
		return nil, err
	}
	refOpts := in.opts
	refOpts.Workers = 1
	if in.ref, err = core.RunContext(ctx, in.gt.Data, refOpts); err != nil {
		return nil, fmt.Errorf("reference fit: %w", err)
	}
	return in, nil
}

// timeSetup runs setup setupRuns times (once in a trace run), tearing down
// all but the last, records the median duration as setup_s and returns the
// last set-up's result.
func timeSetup[T any](r *runner, setup func() (T, error), teardown func(T)) (T, error) {
	runs := setupRuns
	if r.trace {
		runs = 1
	}
	var got T
	var took []float64
	for i := 0; i < runs; i++ {
		if i > 0 {
			teardown(got)
		}
		t0 := time.Now()
		var err error
		if got, err = setup(); err != nil {
			return got, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	r.values["setup_s"] = median(took)
	return got, nil
}

// runFit times whole SSPC fits on one data set, closed loop from one caller,
// for the run's duration.
func runFit(ctx context.Context, r *runner, s fitSpec) error {
	in, err := timeSetup(r, func() (*fitInputs, error) { return s.setup(ctx, r.seed) }, func(*fitInputs) {})
	if err != nil {
		return err
	}
	if r.trace {
		return r.probeLayers(ctx, in, nil)
	}
	var wall, cpu, ari []float64
	rss := sampleRSS(os.Getpid())
	end := time.Now().Add(r.seconds)
	for i := 0; time.Now().Before(end); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		opts := in.opts
		opts.Seed += int64(i)
		c0 := processCPU()
		t0 := time.Now()
		res, err := core.RunContext(ctx, in.gt.Data, opts)
		took := time.Since(t0)
		cpu = append(cpu, (processCPU()-c0).Seconds()*1000)
		if err == nil && i == 0 {
			err = sameResult(res, in.ref)
		}
		var a float64
		if err == nil {
			a, err = eval.ARI(in.gt.Labels, res.Assignments)
		}
		if err != nil {
			err = fmt.Errorf("fit %d (seed %d): %w", i, opts.Seed, err)
			wall = append(wall, math.Inf(1)) // a failed fit misses every latency limit
		} else {
			wall = append(wall, ms(took))
			ari = append(ari, a)
		}
		r.op(err)
	}
	if err := r.memory(rss, os.Getpid()); err != nil {
		return err
	}
	r.values["latency_p50_ms"] = median(wall)
	r.values["cpu_ms_per_op"] = median(cpu)
	r.values["ari_mean"] = mean(ari)
	r.latencyTail("latency", wall)
	return nil
}

// memory records the median resident set sampled during the measured window
// as rss_mb, and the process's high-water mark as a diagnostic.
func (r *runner) memory(rss *rssSampler, pid int) error {
	mb, err := rss.stop()
	if err != nil {
		return err
	}
	peak, err := procMemMB(pid, "VmHWM")
	if err != nil {
		return err
	}
	r.values["rss_mb"] = mb
	r.diag("peak_rss_mb", peak, "MB")
	return nil
}

// latencyTail records, as diagnostics, the highest percentile the sample
// supports (at least ten samples beyond it) and its value. It sorts xs.
func (r *runner) latencyTail(prefix string, xs []float64) {
	p := tailPercentile(len(xs))
	r.diag(prefix+"_samples", float64(len(xs)), "count")
	if p > 0 {
		r.diag(prefix+"_tail_pct", p, "%")
		r.diag(prefix+"_tail_ms", percentile(xs, p), "ms")
	}
}

// sameResult reports how got differs from want, or nil when the two
// clusterings are identical.
func sameResult(got, want *cluster.Result) error {
	switch {
	case !slices.Equal(got.Assignments, want.Assignments):
		return fmt.Errorf("assignments differ from the one-worker reference fit")
	case !slices.EqualFunc(got.Dims, want.Dims, slices.Equal[[]int]):
		return fmt.Errorf("selected dimensions differ from the one-worker reference fit")
	case math.Float64bits(got.Score) != math.Float64bits(want.Score):
		return fmt.Errorf("score %v differs from the one-worker reference fit's %v", got.Score, want.Score)
	}
	return nil
}

// processCPU returns the user+system CPU time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
