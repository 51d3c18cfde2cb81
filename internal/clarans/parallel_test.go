package clarans

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/synth"
)

// The generic parallelism contract (worker invariance, chunk-size
// invariance, restart-0 ≡ base-seed, concurrent shared datasets) is asserted
// for this package by the cross-algorithm conformance suite at the
// repository root (conformance_test.go). Only CLARANS's default number of
// local searches is pinned here.

// TestRestartsDefaultsToNumLocal checks the paper's numlocal default: an
// unset Restarts runs the same two local searches as Restarts = 2, and not
// the one search of Restarts = 1.
func TestRestartsDefaultsToNumLocal(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 150, D: 8, K: 2, AvgDims: 8, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	run := func(restarts int) *cluster.Result {
		t.Helper()
		opts := DefaultOptions(2)
		opts.Seed = 3
		opts.Restarts = restarts
		opts.MaxNeighbor = 60
		res, err := RunContext(context.Background(), gt.Data, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	unset := run(0)
	if !reflect.DeepEqual(unset, run(2)) {
		t.Fatal("unset Restarts diverged from Restarts=2")
	}
	if reflect.DeepEqual(unset, run(1)) {
		t.Fatal("unset Restarts matched Restarts=1")
	}
}
