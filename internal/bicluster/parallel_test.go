package bicluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// The generic parallelism contract is asserted by the cross-algorithm
// conformance suite at the repository root (conformance_test.go). This file
// pins the package-level golden fingerprint and exercises the chunked
// residue scans under -race.

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

// TestGoldenPin records the package's single-restart serial fingerprint at
// the promoting commit (restart 0 ≡ base seed).
func TestGoldenPin(t *testing.T) {
	const golden = "79ab15d8fb933c63 score=1.08114899526"
	ds := plantBicluster(80, 20, []int{1, 3, 5, 7, 9, 11, 13}, []int{0, 2, 4, 6, 8}, 0.2, 53)
	opts := DefaultOptions(2, 2.0)
	opts.Seed = 8
	_, res, err := RunContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := fp(res); got != golden {
		t.Errorf("fingerprint = %s, want %s", got, golden)
	}
}

// TestResiduesChunkedMatchesSerial checks bit-exact equality of the chunked
// residue scans against the serial reference over shrinking row/column
// lists, the way node deletion drives them. Every worker count moves the
// engine-sized chunk boundaries.
func TestResiduesChunkedMatchesSerial(t *testing.T) {
	rng := stats.NewRNG(54)
	n, d := 60, 25
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, d)
		for j := range a[i] {
			a[i][j] = rng.Uniform(0, 100)
		}
	}
	rows := make([]int, 0, n)
	for i := 0; i < n; i += 2 {
		rows = append(rows, i)
	}
	cols := make([]int, 0, d)
	for j := 0; j < d; j += 3 {
		cols = append(cols, j)
	}
	for len(rows) > 2 && len(cols) > 2 {
		hS, rowS, colS := residues(t, a, rows, cols)
		for _, workers := range []int{2, 3, 8} {
			hC, rowC, colC, err := residuesChunked(context.Background(), a, rows, cols, workers)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(hS) != math.Float64bits(hC) {
				t.Fatalf("workers=%d: h %v != serial %v", workers, hC, hS)
			}
			for i := range rowS {
				if math.Float64bits(rowS[i]) != math.Float64bits(rowC[i]) {
					t.Fatalf("workers=%d: rowRes[%d] diverged", workers, i)
				}
			}
			for j := range colS {
				if math.Float64bits(colS[j]) != math.Float64bits(colC[j]) {
					t.Fatalf("workers=%d: colRes[%d] diverged", workers, j)
				}
			}
		}
		rows = rows[:len(rows)-3]
		cols = cols[:len(cols)-1]
	}
}

// TestChunkedResiduesRace drives the four chunked residue scans on 8
// workers, four engine-sized chunks each, for several rounds through full
// Run calls, comparing every round against the serial output — meaningful under -race,
// which would flag any cross-chunk write overlap.
func TestChunkedResiduesRace(t *testing.T) {
	ds := plantBicluster(80, 20, []int{1, 3, 5, 7, 9, 11, 13}, []int{0, 2, 4, 6, 8}, 0.2, 53)
	opts := DefaultOptions(2, 2.0)
	opts.Seed = 8
	opts.Restarts = 2
	opts.Workers = 1
	bicsSerial, serial, err := RunContext(context.Background(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		chunked := opts
		chunked.Workers = 8
		bics, res, err := RunContext(context.Background(), ds, chunked)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bics, bicsSerial) || !reflect.DeepEqual(res, serial) {
			t.Fatalf("round %d: chunked run diverged from serial (%s vs %s)",
				round, fp(res), fp(serial))
		}
	}
}
