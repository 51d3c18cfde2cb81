package clique

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/synth"
)

// The cross-algorithm contract (sharded-vs-flat, concurrent shared
// datasets, cancellation) is asserted for this package by the conformance
// suite at the repository root (conformance_test.go). This file pins the
// package-level golden fingerprint.

// fp is the root suite's fingerprint spelling, duplicated so the package
// pin stands alone.
func fp(res *cluster.Result) string {
	h := fnv.New64a()
	for _, a := range res.Assignments {
		fmt.Fprintf(h, "%d,", a)
	}
	io.WriteString(h, "|")
	for _, dims := range res.Dims {
		for _, d := range dims {
			fmt.Fprintf(h, "%d,", d)
		}
		io.WriteString(h, ";")
	}
	return fmt.Sprintf("%016x score=%.12g", h.Sum64(), res.Score)
}

func raceFixture(t *testing.T) *synth.GroundTruth {
	t.Helper()
	gt, err := synth.Generate(synth.Config{
		N: 200, D: 12, K: 2, AvgDims: 4,
		LocalSDMinFrac: 0.01, LocalSDMaxFrac: 0.03, Seed: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

// TestGoldenPin records the package's serial fingerprint at the promoting
// commit.
func TestGoldenPin(t *testing.T) {
	const golden = "1c83e448615290a3 score=387"
	gt := raceFixture(t)
	opts := DefaultOptions()
	opts.Tau = 0.08
	_, res, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fp(res); got != golden {
		t.Errorf("fingerprint = %s, want %s", got, golden)
	}
}
