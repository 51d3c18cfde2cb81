// Package experiments regenerates every table and figure of the SSPC
// paper's evaluation (Section 5) plus the two analysis figures (Figures 1
// and 2). Each FigureN function runs the corresponding experiment and
// renders the same series the paper plots; cmd/experiments and the root
// bench suite are thin wrappers around this package.
//
// Config.Scale trades fidelity for speed: 1.0 reproduces the paper's
// dataset sizes and repeat counts, smaller values shrink both so the whole
// suite can run in CI.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/stats"
)

// Config controls experiment fidelity.
type Config struct {
	// Repeats is the number of repeated runs per configuration (the paper
	// uses 10, reporting the best by objective score for §5.1–5.2 and the
	// median over independent knowledge draws for §5.3).
	Repeats int
	// Scale multiplies dataset sizes; 1.0 = the paper's configuration.
	Scale float64
	// Seed drives data generation and all algorithm randomness.
	Seed int64
	// Workers bounds how many (algorithm × dataset × seed) cells run
	// concurrently; <= 0 means runtime.GOMAXPROCS(0). Every repeated run
	// keeps its historical per-repeat seed, so tables are identical for
	// every worker count — only wall-clock time changes. The scalability
	// timings (Figure 8) always run serially to stay meaningful.
	Workers int
	// EarlyStop, when > 0, streams each best-of-Repeats protocol instead of
	// always running all Repeats: repeats launch lazily and stop once the
	// best objective has not improved for EarlyStop consecutive repeats
	// (judged in repeat order, so tables stay identical for every Workers
	// value). 0 (the default) reproduces the paper's fixed-repeat protocol
	// exactly. Cells that report medians over independent knowledge draws
	// (§5.3) never early-stop — every draw is part of the statistic.
	EarlyStop int
}

func (c Config) normalized() Config {
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	return c
}

// scaleInt scales a paper-sized quantity, keeping a sane floor.
func scaleInt(v int, scale float64, floor int) int {
	s := int(float64(v) * scale)
	if s < floor {
		s = floor
	}
	return s
}

// Table is a printable result series: one labeled row per x-axis point.
type Table struct {
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
}

// Row is one x-axis point of a table.
type Row struct {
	Label string
	Cells []float64
}

// Add appends a row.
func (t *Table) Add(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Cells: cells})
}

// WriteTo renders the table in a fixed-width format.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", t.Title)
	fmt.Fprintf(&sb, "%-14s", t.XLabel)
	for _, c := range t.Columns {
		fmt.Fprintf(&sb, " %12s", c)
	}
	sb.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, "%-14s", r.Label)
		for _, v := range r.Cells {
			fmt.Fprintf(&sb, " %12.4f", v)
		}
		sb.WriteByte('\n')
	}
	n, err := io.WriteString(w, sb.String())
	return int64(n), err
}

// bestOf runs fn up to Repeats times with distinct seeds and returns the
// result with the best algorithm-specific objective score, mirroring the
// paper's protocol ("we repeated each experiment 10 times and report only
// the result that gives the best algorithm-specific objective score"). The
// repeats run concurrently on up to `workers` goroutines; each repeat keeps
// its historical seed baseSeed+r and ties keep the lowest repeat, so the
// winner is identical for every worker count. earlyStop > 0 streams the
// repeats and stops once the best score has plateaued for that many
// consecutive repeats (still judged in repeat order — the winner stays
// worker-count invariant); 0 always runs all repeats.
func bestOf(ctx context.Context, repeats, workers, earlyStop int, baseSeed int64, fn func(seed int64) (*cluster.Result, error)) (*cluster.Result, error) {
	results, err := engine.Run(ctx, repeats, workers, baseSeed, earlyStop,
		cluster.BetterResult,
		func(r int, _ *stats.RNG, _ int) (*cluster.Result, error) {
			return fn(baseSeed + int64(r))
		})
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("experiments: bestOf with %d repeats", repeats)
	}
	return results[engine.Best(results, func(a, b *cluster.Result) bool {
		return a.Better(a.Score, b.Score)
	})], nil
}

// parallelCells runs independent table cells (one closure each, writing to
// its own captured variables) concurrently on up to `workers` goroutines.
// Cells must not share mutable state; determinism is theirs to keep — every
// cell in this package is a pure function of the config seeds.
func parallelCells(ctx context.Context, workers int, cells ...func() error) error {
	_, err := engine.Run(ctx, len(cells), workers, 0, 0, nil,
		func(i int, _ *stats.RNG, _ int) (struct{}, error) {
			return struct{}{}, cells[i]()
		})
	return err
}
