package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// tiny returns a configuration small enough for unit tests.
func tiny() Config { return Config{Repeats: 1, Scale: 0.25, Seed: 3} }

func checkTable(t *testing.T, tb *Table, wantRows, wantCols int) {
	t.Helper()
	if len(tb.Rows) != wantRows {
		t.Errorf("%s: %d rows, want %d", tb.Title, len(tb.Rows), wantRows)
	}
	for _, r := range tb.Rows {
		if len(r.Cells) != wantCols {
			t.Errorf("%s row %q: %d cells, want %d", tb.Title, r.Label, len(r.Cells), wantCols)
		}
	}
	var buf bytes.Buffer
	if _, err := tb.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, tb.Title) {
		t.Error("rendered table missing title")
	}
	for _, c := range tb.Columns {
		if !strings.Contains(out, c) {
			t.Errorf("rendered table missing column %q", c)
		}
	}
}

func TestFigure1Table(t *testing.T) {
	tb, err := Figure1Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 10, 4)
	// Monotone along each column.
	for c := 0; c < 4; c++ {
		for r := 1; r < len(tb.Rows); r++ {
			if tb.Rows[r].Cells[c] < tb.Rows[r-1].Cells[c]-1e-9 {
				t.Errorf("Fig1 column %d not monotone at row %d", c, r)
			}
		}
	}
}

func TestFigure2Table(t *testing.T) {
	tb, err := Figure2Context(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 10, 4)
	// The 1% column should dominate the 10% column (labeled dims work
	// better at low dimensionality).
	for r := 2; r < len(tb.Rows); r++ {
		if tb.Rows[r].Cells[0] < tb.Rows[r].Cells[3] {
			t.Errorf("Fig2 row %d: 1%% (%v) below 10%% (%v)",
				r, tb.Rows[r].Cells[0], tb.Rows[r].Cells[3])
		}
	}
}

func TestFigure3TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm sweep")
	}
	tb, err := Figure3Context(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 8, 5)
	// At high dimensionality (last row, l_real=40 of 100) every projected
	// algorithm should beat near-random.
	last := tb.Rows[len(tb.Rows)-1]
	if last.Cells[3] < 0.5 { // SSPC(m)
		t.Errorf("SSPC(m) at l_real=40: ARI %v", last.Cells[3])
	}
}

func TestFigure4TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm sweep")
	}
	tb, err := Figure4Context(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 9, 3)
}

func TestOutlierImmunityTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tb, err := OutlierImmunityContext(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 6, 3)
	// True outlier counts must match the injected fractions.
	if tb.Rows[0].Cells[2] != 0 {
		t.Errorf("0%% row has %v true outliers", tb.Rows[0].Cells[2])
	}
	if tb.Rows[5].Cells[2] == 0 {
		t.Error("25% row has no true outliers")
	}
}

func TestFigure5TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("knowledge sweep")
	}
	tb, err := Figure5Context(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 9, 3)
	// Row 0 (no inputs) should be the same value in every column.
	r0 := tb.Rows[0]
	if r0.Cells[0] != r0.Cells[1] || r0.Cells[1] != r0.Cells[2] {
		t.Errorf("input size 0 should be kind-independent: %v", r0.Cells)
	}
	// Large inputs of both kinds should beat no inputs.
	rLast := tb.Rows[len(tb.Rows)-1]
	if rLast.Cells[2] < r0.Cells[2] {
		t.Errorf("8 inputs of both kinds (%v) below raw (%v)", rLast.Cells[2], r0.Cells[2])
	}
}

func TestFigure6TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("knowledge sweep")
	}
	tb, err := Figure6Context(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 6, 3)
}

func TestFigure7TinyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multigroup sweep")
	}
	tb, err := Figure7Context(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 5, 2)
	// Supervision toward grouping 1 should track grouping 1 better than
	// grouping 2, and vice versa.
	var in1, in2 Row
	for _, r := range tb.Rows {
		if r.Label == "SSPC+input1" {
			in1 = r
		}
		if r.Label == "SSPC+input2" {
			in2 = r
		}
	}
	if in1.Cells[0] < in1.Cells[1] {
		t.Errorf("SSPC+input1 tracks grouping 2 better: %v", in1.Cells)
	}
	if in2.Cells[1] < in2.Cells[0] {
		t.Errorf("SSPC+input2 tracks grouping 1 better: %v", in2.Cells)
	}
}

func TestFigure8Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sweep")
	}
	cfg := Config{Repeats: 1, Scale: 0.25, Seed: 3}
	ta, err := Figure8aContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, ta, 4, 2)
	tb, err := Figure8bContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 4, 2)
	// Times must be positive.
	for _, r := range append(ta.Rows, tb.Rows...) {
		if r.Cells[0] <= 0 || r.Cells[1] <= 0 {
			t.Errorf("non-positive timing in row %q: %v", r.Label, r.Cells)
		}
	}
}

func TestSupervisionStylesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm sweep")
	}
	tb, err := SupervisionStylesContext(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 4, 4)
	// Every cell is a valid ARI.
	for _, r := range tb.Rows {
		for c, v := range r.Cells {
			if v < -1.0001 || v > 1.0001 {
				t.Errorf("row %q col %d: ARI %v out of range", r.Label, c, v)
			}
		}
	}
}

func TestSubspaceBaselinesTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm sweep")
	}
	tb, err := SubspaceBaselinesContext(context.Background(), tiny())
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 4, 3)
	// SSPC should dominate the unsupervised full-matrix baselines at high
	// cluster dimensionality (the projected structure is what it models).
	last := tb.Rows[len(tb.Rows)-1]
	if last.Cells[2] < 0.3 {
		t.Errorf("SSPC(m) at l_real=8: ARI %v", last.Cells[2])
	}
}

func TestHelpers(t *testing.T) {
	if got := scaleInt(1000, 0.1, 300); got != 300 {
		t.Errorf("scaleInt floor = %v", got)
	}
	if got := scaleInt(1000, 0.5, 300); got != 500 {
		t.Errorf("scaleInt = %v", got)
	}
	ls := proclusLValues(5, 100)
	for _, l := range ls {
		if l < 2 || l > 100 {
			t.Errorf("l value %d out of range", l)
		}
	}
}

func TestNoisyInputsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("knowledge sweep")
	}
	tb, err := NoisyInputsContext(context.Background(), Config{Repeats: 2, Scale: 0.4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkTable(t, tb, 6, 3)
	// With no corruption only a handful of the ~60 entries may be flagged
	// (the leave-one-out test has a small false-positive rate).
	if tb.Rows[0].Cells[2] > 6 {
		t.Errorf("clean inputs flagged %v entries on average", tb.Rows[0].Cells[2])
	}
	// At heavy corruption, validation should flag a fair number of entries.
	if tb.Rows[5].Cells[2] == 0 {
		t.Error("50% corruption flagged nothing")
	}
}
