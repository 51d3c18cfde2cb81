// Package bicluster implements the Cheng–Church δ-bicluster algorithm
// (Cheng & Church — ISMB 2000), the biclustering comparator the SSPC paper
// cites as the second related problem ([7] in §2.1). A δ-bicluster is a
// submatrix (subset of rows I and columns J) whose mean squared residue
//
//	H(I,J) = (1/|I||J|) Σ_{i∈I,j∈J} (a_ij − a_iJ − a_Ij + a_IJ)²
//
// is at most δ — rows and columns that move coherently. Biclusters are
// found one at a time by multiple node deletion followed by node addition;
// found biclusters are masked with random values before the next search.
//
// The randomized restarts (masking draws fresh random values, so searches
// after the first bicluster diverge between restarts) run through the
// shared restart engine under the repository-wide determinism contract:
// results are a pure function of (dataset, options) for every Workers
// value. Run also flattens the biclusters into the
// repository's shared disjoint-partition Result (rows → clusters, columns →
// selected dimensions, mean H as the lower-is-better score).
package bicluster

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Options configures the Cheng–Church search.
type Options struct {
	// K is the number of biclusters to extract.
	K int
	// Delta is the residue threshold δ.
	Delta float64
	Seed  int64

	// Restarts is the number of independent randomized restarts (the
	// masking values differ); the result with the lowest mean residue is
	// returned (ties keep the lowest restart index). <= 0 means 1. Restart
	// r derives its RNG from engine.ChildSeed(Seed, r), so restart 0
	// reproduces the single-run output. With K = 1 no masking happens and
	// every restart is identical.
	Restarts int

	// Workers bounds how many restarts run concurrently; <= 0 means
	// runtime.GOMAXPROCS(0). The worker count never changes the result.
	// Each restart runs serially: its residue scans measured slower split
	// across goroutines.
	Workers int
}

// DefaultOptions returns the paper's usual parameters.
func DefaultOptions(k int, delta float64) Options {
	return Options{K: k, Delta: delta}
}

const (
	// alpha is the multiple-deletion aggressiveness: rows and columns with
	// residue above alpha·H are removed in bulk. The paper uses 1.2.
	alpha = 1.2
	// minRows and minCols stop deletion from emptying the bicluster.
	minRows = 2
	minCols = 2
)

// Bicluster is a discovered submatrix.
type Bicluster struct {
	Rows, Cols []int
	// H is the mean squared residue of the bicluster.
	H float64
}

// RunContext extracts K δ-biclusters and flattens them into the shared
// Result form: each object joins the first discovered bicluster containing
// its row (later ones lose the overlap), objects in no bicluster are
// outliers, each cluster's Dims are its bicluster's columns, and Score is the
// mean residue H across the K biclusters (lower is better). The input matrix
// is copied; masking does not modify the caller's dataset.
//
// Cancellation is checked at every restart launch, before every extracted
// bicluster, and at every deletion round of both node-deletion phases, so a
// canceled search returns context.Cause(ctx) — never a partial result.
func RunContext(ctx context.Context, ds *dataset.Dataset, opts Options) ([]Bicluster, *cluster.Result, error) {
	if ds == nil {
		return nil, nil, errors.New("bicluster: nil dataset")
	}
	if opts.K <= 0 {
		return nil, nil, fmt.Errorf("bicluster: K = %d", opts.K)
	}
	if opts.Delta < 0 {
		return nil, nil, fmt.Errorf("bicluster: Delta = %v", opts.Delta)
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 1
	}
	d := ds.D()

	// The masking range is a function of the dataset only; compute it once.
	maskLo, maskHi := 0.0, 0.0
	for j := 0; j < d; j++ {
		if ds.ColMin(j) < maskLo {
			maskLo = ds.ColMin(j)
		}
		if ds.ColMax(j) > maskHi {
			maskHi = ds.ColMax(j)
		}
	}
	if maskHi <= maskLo {
		maskHi = maskLo + 1
	}

	type runOut struct {
		bics []Bicluster
		res  *cluster.Result
	}
	outs, err := engine.Run(ctx, restarts, opts.Workers, opts.Seed, 0, nil,
		func(_ int, rng *stats.RNG, _ int) (runOut, error) {
			bics, res, err := runOnce(ctx, ds, opts, maskLo, maskHi, rng)
			return runOut{bics, res}, err
		})
	if err != nil {
		return nil, nil, err
	}
	best := outs[engine.Best(outs, func(a, b runOut) bool {
		return a.res.Score < b.res.Score
	})]
	return best.bics, best.res, nil
}

// runOnce is one restart: extract K biclusters from a private copy of the
// matrix, masking each found bicluster with rng-drawn values.
func runOnce(ctx context.Context, ds *dataset.Dataset, opts Options, maskLo, maskHi float64,
	rng *stats.RNG) ([]Bicluster, *cluster.Result, error) {
	n, d := ds.N(), ds.D()

	// Working copy for masking.
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = append([]float64(nil), ds.Row(i)...)
	}

	var out []Bicluster
	for c := 0; c < opts.K; c++ {
		if err := engine.Cause(ctx); err != nil {
			return nil, nil, err
		}
		rows := seq(n)
		cols := seq(d)

		// Phase 1 — multiple node deletion (Algorithm 2 of the paper), used
		// only while the matrix is large: drop in bulk every row/column
		// whose residue exceeds alpha·H.
		const bulkThreshold = 100
		for (len(rows) > bulkThreshold || len(cols) > bulkThreshold) &&
			(len(rows) > minRows && len(cols) > minCols) {
			if err := engine.Cause(ctx); err != nil {
				return nil, nil, err
			}
			h, rowRes, colRes := residues(a, rows, cols)
			if h <= opts.Delta {
				break
			}
			threshold := alpha * h
			newRows := rows[:0:0]
			for t, i := range rows {
				if rowRes[t] <= threshold {
					newRows = append(newRows, i)
				}
			}
			if len(newRows) < minRows {
				newRows = rows
			}
			newCols := cols[:0:0]
			for t, j := range cols {
				if colRes[t] <= threshold {
					newCols = append(newCols, j)
				}
			}
			if len(newCols) < minCols {
				newCols = cols
			}
			if len(newRows) == len(rows) && len(newCols) == len(cols) {
				break // bulk deletion stalled; switch to single deletion
			}
			rows, cols = newRows, newCols
		}

		// Phase 2 — single node deletion (Algorithm 1): repeatedly remove
		// the one row or column with the largest residue until H <= δ.
		for len(rows) > minRows || len(cols) > minCols {
			if err := engine.Cause(ctx); err != nil {
				return nil, nil, err
			}
			h, rowRes, colRes := residues(a, rows, cols)
			if h <= opts.Delta {
				break
			}
			worstRow, worstRowVal := -1, -1.0
			for t := range rows {
				if rowRes[t] > worstRowVal {
					worstRowVal = rowRes[t]
					worstRow = t
				}
			}
			worstCol, worstColVal := -1, -1.0
			for t := range cols {
				if colRes[t] > worstColVal {
					worstColVal = colRes[t]
					worstCol = t
				}
			}
			switch {
			case worstRowVal >= worstColVal && len(rows) > minRows:
				rows = append(rows[:worstRow], rows[worstRow+1:]...)
			case len(cols) > minCols:
				cols = append(cols[:worstCol], cols[worstCol+1:]...)
			case len(rows) > minRows:
				rows = append(rows[:worstRow], rows[worstRow+1:]...)
			default:
				// Both at the floor; cannot shrink further.
				worstRow = -1
			}
			if worstRow == -1 && worstCol == -1 {
				break
			}
			if len(rows) == minRows && len(cols) == minCols {
				break
			}
		}

		// Node addition: add back columns then rows whose residue does not
		// exceed the current H.
		h, _, _ := residues(a, rows, cols)
		rows, cols = addNodes(a, rows, cols, h, n, d)
		h, _, _ = residues(a, rows, cols)

		out = append(out, Bicluster{
			Rows: append([]int(nil), rows...),
			Cols: append([]int(nil), cols...),
			H:    h,
		})

		// Mask the found bicluster with random values so the next search
		// finds something else.
		for _, i := range rows {
			for _, j := range cols {
				a[i][j] = rng.Uniform(maskLo, maskHi)
			}
		}
	}
	res, err := flatten(out, n, d)
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// flatten maps biclusters onto the shared disjoint-partition Result.
func flatten(bics []Bicluster, n, d int) (*cluster.Result, error) {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = cluster.Outlier
	}
	dims := make([][]int, len(bics))
	total := 0.0
	for c, b := range bics {
		dims[c] = append([]int(nil), b.Cols...)
		sort.Ints(dims[c])
		for _, i := range b.Rows {
			if assign[i] == cluster.Outlier {
				assign[i] = c
			}
		}
		total += b.H
	}
	res := &cluster.Result{
		K:                   len(bics),
		Assignments:         assign,
		Dims:                dims,
		Score:               total / float64(len(bics)),
		ScoreHigherIsBetter: false,
	}
	if err := res.Validate(n, d); err != nil {
		return nil, fmt.Errorf("bicluster: internal result invalid: %w", err)
	}
	return res, nil
}

// residues computes H(I,J) and the per-row / per-column mean squared
// residues d(i) and d(j) — the node-deletion scoring hot loop — in two
// row-major passes over the submatrix. Each row's sums add in ascending
// column order and each column's sums in ascending row order, and H folds
// the row residues in ascending row order.
func residues(a [][]float64, rows, cols []int) (h float64, rowRes, colRes []float64) {
	nr, nc := len(rows), len(cols)
	rowMean := make([]float64, nr)
	colMean := make([]float64, nc)
	for ti, i := range rows {
		ai := a[i]
		sum := 0.0
		for tj, j := range cols {
			sum += ai[j]
			colMean[tj] += ai[j]
		}
		rowMean[ti] = sum
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
		ai := a[i]
		sum := 0.0
		for tj, j := range cols {
			r := ai[j] - rowMean[ti] - colMean[tj] + grand
			sum += r * r
			colRes[tj] += r * r
		}
		rowRes[ti] = sum
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

// addNodes adds back columns and rows whose mean squared residue against
// the bicluster is no worse than h.
func addNodes(a [][]float64, rows, cols []int, h float64, n, d int) ([]int, []int) {
	inRows := make([]bool, n)
	for _, i := range rows {
		inRows[i] = true
	}
	inCols := make([]bool, d)
	for _, j := range cols {
		inCols[j] = true
	}

	// Column addition.
	nr, nc := len(rows), len(cols)
	rowMean := make([]float64, nr)
	grand := 0.0
	for ti, i := range rows {
		for _, j := range cols {
			rowMean[ti] += a[i][j]
		}
		grand += rowMean[ti]
		rowMean[ti] /= float64(nc)
	}
	grand /= float64(nr * nc)
	for j := 0; j < d; j++ {
		if inCols[j] {
			continue
		}
		colMean := 0.0
		for _, i := range rows {
			colMean += a[i][j]
		}
		colMean /= float64(nr)
		res := 0.0
		for ti, i := range rows {
			r := a[i][j] - rowMean[ti] - colMean + grand
			res += r * r
		}
		if res/float64(nr) <= h {
			cols = append(cols, j)
			inCols[j] = true
		}
	}

	// Row addition against the (possibly extended) column set.
	nc = len(cols)
	colMean2 := make([]float64, nc)
	grand = 0.0
	for tj, j := range cols {
		for _, i := range rows {
			colMean2[tj] += a[i][j]
		}
		grand += colMean2[tj]
		colMean2[tj] /= float64(nr)
	}
	grand /= float64(nr * nc)
	for i := 0; i < n; i++ {
		if inRows[i] {
			continue
		}
		rm := 0.0
		for _, j := range cols {
			rm += a[i][j]
		}
		rm /= float64(nc)
		res := 0.0
		for tj, j := range cols {
			r := a[i][j] - rm - colMean2[tj] + grand
			res += r * r
		}
		if res/float64(nc) <= h {
			rows = append(rows, i)
			inRows[i] = true
		}
	}
	return rows, cols
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
