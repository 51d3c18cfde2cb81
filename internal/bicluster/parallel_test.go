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
// pins the package-level golden fingerprint, pins the residue arithmetic bit
// for bit, and runs concurrent restarts under -race.

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

// columnResidues is the residue arithmetic one index at a time: every row
// statistic scans its row in ascending column order, every column statistic
// scans its column in ascending row order, and H folds the row residues in
// ascending row order. It is what the four scans of the chunked residue
// computation added, so residues must reproduce it bit for bit.
func columnResidues(a [][]float64, rows, cols []int) (h float64, rowRes, colRes []float64) {
	nr, nc := len(rows), len(cols)
	rowMean := make([]float64, nr)
	colMean := make([]float64, nc)
	for ti, i := range rows {
		for _, j := range cols {
			rowMean[ti] += a[i][j]
		}
	}
	for tj, j := range cols {
		for _, i := range rows {
			colMean[tj] += a[i][j]
		}
	}
	total := 0.0
	for ti := range rowMean {
		total += rowMean[ti]
		rowMean[ti] /= float64(nc)
	}
	for tj := range colMean {
		colMean[tj] /= float64(nr)
	}
	grand := total / float64(nr*nc)
	rowRes = make([]float64, nr)
	colRes = make([]float64, nc)
	for ti, i := range rows {
		for tj, j := range cols {
			r := a[i][j] - rowMean[ti] - colMean[tj] + grand
			rowRes[ti] += r * r
		}
	}
	for tj, j := range cols {
		for ti, i := range rows {
			r := a[i][j] - rowMean[ti] - colMean[tj] + grand
			colRes[tj] += r * r
		}
	}
	for ti := range rowRes {
		h += rowRes[ti]
		rowRes[ti] /= float64(nc)
	}
	h /= float64(nr * nc)
	for tj := range colRes {
		colRes[tj] /= float64(nr)
	}
	return h, rowRes, colRes
}

// TestResiduesChunkedMatchesSerial checks that the two row-major passes of
// residues give the bits of the one-index-at-a-time arithmetic the chunked
// scans used, over shrinking row/column lists, the way node deletion drives
// them.
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
		hW, rowW, colW := columnResidues(a, rows, cols)
		h, rowRes, colRes := residues(a, rows, cols)
		if math.Float64bits(h) != math.Float64bits(hW) {
			t.Fatalf("%dx%d: h %v != %v", len(rows), len(cols), h, hW)
		}
		for i := range rowW {
			if math.Float64bits(rowRes[i]) != math.Float64bits(rowW[i]) {
				t.Fatalf("%dx%d: rowRes[%d] diverged", len(rows), len(cols), i)
			}
		}
		for j := range colW {
			if math.Float64bits(colRes[j]) != math.Float64bits(colW[j]) {
				t.Fatalf("%dx%d: colRes[%d] diverged", len(rows), len(cols), j)
			}
		}
		rows = rows[:len(rows)-3]
		cols = cols[:len(cols)-1]
	}
}

// TestChunkedResiduesRace runs two restarts concurrently on 8 workers for
// several rounds, comparing every round against the one-worker output —
// meaningful under -race, which would flag any state the restarts share.
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
		concurrent := opts
		concurrent.Workers = 8
		bics, res, err := RunContext(context.Background(), ds, concurrent)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bics, bicsSerial) || !reflect.DeepEqual(res, serial) {
			t.Fatalf("round %d: concurrent run diverged from serial (%s vs %s)",
				round, fp(res), fp(serial))
		}
	}
}
