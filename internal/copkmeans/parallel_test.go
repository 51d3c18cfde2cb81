package copkmeans

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

// The generic parallelism contract is asserted by the cross-algorithm
// conformance suite at the repository root (conformance_test.go). This file
// pins the package-level golden fingerprint and exercises the chunked
// constrained-assignment scan under -race.

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

func raceFixture(t *testing.T) (*synth.GroundTruth, *Constraints) {
	t.Helper()
	gt, err := synth.Generate(synth.Config{N: 180, D: 8, K: 3, AvgDims: 8, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	cons := &Constraints{
		MustLink:   [][2]int{{0, 1}, {7, 8}},
		CannotLink: [][2]int{{0, 7}, {20, 40}},
	}
	return gt, cons
}

// TestGoldenPin records the package's single-restart serial fingerprint at
// the promoting commit (restart 0 ≡ base seed).
func TestGoldenPin(t *testing.T) {
	const golden = "c6e9176c6606c621 score=63273.4663754"
	gt, cons := raceFixture(t)
	opts := DefaultOptions(3)
	opts.Seed = 6
	res, err := RunContext(context.Background(), gt.Data, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fp(res); got != golden {
		t.Errorf("fingerprint = %s, want %s", got, golden)
	}
}

// TestChunkedAssignRace drives the chunked (component × center) distance
// scan on 8 workers, four engine-sized chunks each, for several rounds,
// comparing every round against the serial output — meaningful under -race,
// which would flag any cross-chunk write overlap in the shared distance
// matrix.
func TestChunkedAssignRace(t *testing.T) {
	gt, cons := raceFixture(t)
	opts := DefaultOptions(3)
	opts.Seed = 6
	opts.Restarts = 2
	opts.Workers = 1
	serial, err := RunContext(context.Background(), gt.Data, cons, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		chunked := opts
		chunked.Workers = 8
		res, err := RunContext(context.Background(), gt.Data, cons, chunked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, serial) {
			t.Fatalf("round %d: chunked run diverged from serial (%s vs %s)",
				round, fp(res), fp(serial))
		}
	}
}
