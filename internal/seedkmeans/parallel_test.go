package seedkmeans

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/synth"
)

// The generic parallelism contract is asserted by the cross-algorithm
// conformance suite at the repository root (conformance_test.go). This file
// pins the package-level golden fingerprint and exercises the chunked
// assignment scan under -race.

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

func raceFixture(t *testing.T) (*synth.GroundTruth, *dataset.Knowledge) {
	t.Helper()
	gt, err := synth.Generate(synth.Config{N: 180, D: 8, K: 3, AvgDims: 8, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	// Seed two of the three classes so one cluster stays randomized and the
	// restart machinery has something to vary.
	kn := dataset.NewKnowledge()
	for c := 0; c < 2; c++ {
		for i, obj := range gt.MembersOfClass(c) {
			if i >= 3 {
				break
			}
			kn.LabelObject(obj, c)
		}
	}
	// One deliberate mislabel: a class-2 object seeded into class 0. The
	// seeded variant only shifts an initial centroid by it, the constrained
	// variant clamps it forever — so the two variants' pins must differ.
	kn.LabelObject(gt.MembersOfClass(2)[0], 0)
	return gt, kn
}

// TestGoldenPin records the package's single-restart serial fingerprint at
// the promoting commit (restart 0 ≡ base seed), for both variants.
func TestGoldenPin(t *testing.T) {
	gt, kn := raceFixture(t)
	for _, tc := range []struct {
		name        string
		constrained bool
		golden      string
	}{
		{"seeded", false, "cac4d3e2cab66d38 score=53709.0607339"},
		{"constrained", true, "f590e62101cd14de score=68403.7682241"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions(3)
			opts.Constrained = tc.constrained
			opts.Seed = 7
			res, err := RunContext(context.Background(), gt.Data, kn, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := fp(res); got != tc.golden {
				t.Errorf("fingerprint = %s, want %s", got, tc.golden)
			}
		})
	}
}

// TestChunkedAssignRace drives the chunked per-object assignment scan on 8
// workers, four engine-sized chunks each, for several rounds, comparing
// every round against the serial output — meaningful under -race, which
// would flag any cross-chunk write overlap in assign/dist.
func TestChunkedAssignRace(t *testing.T) {
	gt, kn := raceFixture(t)
	opts := DefaultOptions(3)
	opts.Constrained = true
	opts.Seed = 7
	opts.Restarts = 2
	opts.Workers = 1
	serial, err := RunContext(context.Background(), gt.Data, kn, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		chunked := opts
		chunked.Workers = 8
		res, err := RunContext(context.Background(), gt.Data, kn, chunked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, serial) {
			t.Fatalf("round %d: chunked run diverged from serial (%s vs %s)",
				round, fp(res), fp(serial))
		}
	}
}
