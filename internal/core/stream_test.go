package core

import (
	"reflect"
	"testing"

	"repro/internal/synth"
)

// TestEarlyStopDisabledMatchesFixedRestarts pins the PR-1 compatibility
// contract at the SSPC level: EarlyStop = 0 and an EarlyStop window too wide
// to ever trigger must both reproduce the fixed best-of-Restarts result
// exactly.
func TestEarlyStopDisabledMatchesFixedRestarts(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 20, K: 3, AvgDims: 5, Seed: 70})
	run := func(earlyStop int) Options {
		opts := DefaultOptions(3)
		opts.Seed = 7
		opts.Restarts = 5
		opts.EarlyStop = earlyStop
		return opts
	}
	fixed := runSSPC(t, gt, run(0))
	// A window >= Restarts can never trigger (the plateau counter tops out
	// at Restarts-1), so the streaming path must land on the same result.
	widest := runSSPC(t, gt, run(5))
	if !reflect.DeepEqual(fixed, widest) {
		t.Fatal("EarlyStop=Restarts diverged from EarlyStop=0")
	}
}

// TestEarlyStopPlateauCancels drives a plateau-triggered cancellation
// through the public Run path and checks (a) the trace reports the cut, (b)
// the consumed prefix decision is identical for every worker count, and (c)
// the returned result is the best over exactly that prefix.
func TestEarlyStopPlateauCancels(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 20, K: 3, AvgDims: 5, Seed: 71})
	const restarts = 12
	run := func(workers int) (res *resultAndStop) {
		res = &resultAndStop{}
		opts := DefaultOptions(3)
		opts.Seed = 9
		opts.Restarts = restarts
		opts.EarlyStop = 2
		opts.Workers = workers
		opts.Trace = &Trace{OnEarlyStop: func(consumed, planned int) {
			res.consumed, res.planned = consumed, planned
		}}
		res.result = runSSPC(t, gt, opts)
		return res
	}
	serial := run(1)
	if serial.planned != restarts {
		t.Fatalf("OnEarlyStop reported planned=%d, want %d (or never fired)", serial.planned, restarts)
	}
	if serial.consumed <= 0 || serial.consumed >= restarts {
		t.Fatalf("consumed %d restarts, want a strict cut of %d", serial.consumed, restarts)
	}
	for _, workers := range []int{4, 8} {
		parallel := run(workers)
		if parallel.consumed != serial.consumed {
			t.Errorf("workers=%d consumed %d restarts, serial consumed %d",
				workers, parallel.consumed, serial.consumed)
		}
		if !reflect.DeepEqual(serial.result, parallel.result) {
			t.Errorf("workers=%d early-stopped result diverged from serial", workers)
		}
	}
	// The early-stopped result must equal the fixed best over the consumed
	// prefix alone.
	opts := DefaultOptions(3)
	opts.Seed = 9
	opts.Restarts = serial.consumed
	prefix := runSSPC(t, gt, opts)
	if !reflect.DeepEqual(serial.result, prefix) {
		t.Fatal("early-stopped result differs from the fixed best over the consumed prefix")
	}
}

type resultAndStop struct {
	result   interface{}
	consumed int
	planned  int
}

// TestChunkSizeInvariance: the engine sizes the assignment chunks from the
// worker count, so every intra-restart worker count moves the chunk
// boundaries — and must still produce byte-identical results (Restarts=1
// routes the whole worker budget inside the restart). Run under -race in CI,
// this also proves the chunk workers share no mutable state.
func TestChunkSizeInvariance(t *testing.T) {
	gt := generate(t, synth.Config{N: 150, D: 20, K: 3, AvgDims: 5, Seed: 72})
	run := func(workers int, scheme ThresholdScheme) interface{} {
		opts := DefaultOptions(3)
		opts.Scheme = scheme
		if scheme == SchemeP {
			opts.P = 0.1
		}
		opts.Seed = 11
		opts.Workers = workers
		return runSSPC(t, gt, opts)
	}
	for _, scheme := range []ThresholdScheme{SchemeM, SchemeP} {
		base := run(1, scheme)
		for _, workers := range []int{2, 3, 8} {
			if got := run(workers, scheme); !reflect.DeepEqual(base, got) {
				t.Errorf("scheme %v: Workers=%d diverged from the serial run", scheme, workers)
			}
		}
	}
}
