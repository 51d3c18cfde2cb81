package clique

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/synth"
)

// The generic parallelism contract (worker invariance, chunk-size
// invariance, restart-0 ≡ base-seed, sharded-vs-flat, concurrent shared
// datasets) is asserted for this package by the cross-algorithm conformance
// suite at the repository root (conformance_test.go). This file pins the
// package-level golden fingerprint and exercises the chunked hot loops
// under -race.

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

// TestChunkedScansRace drives the two chunked hot loops (the row-ranged
// cell scan and the per-dimension density scan) on 8 workers, four
// engine-sized chunks each, for several rounds, comparing every round
// against the serial output — meaningful under -race, which would flag any
// cross-chunk write overlap.
func TestChunkedScansRace(t *testing.T) {
	gt := raceFixture(t)
	opts := DefaultOptions()
	opts.Tau = 0.08
	opts.Workers = 1
	subsSerial, serial, err := RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		chunked := opts
		chunked.Workers = 8
		subs, res, err := RunContext(context.Background(), gt.Data, chunked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(subs, subsSerial) || !reflect.DeepEqual(res, serial) {
			t.Fatalf("round %d: chunked run diverged from serial (%s vs %s)",
				round, fp(res), fp(serial))
		}
	}
}
