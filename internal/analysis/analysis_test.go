package analysis

import (
	"math"
	"testing"
)

// paperObjects returns the Figure 1 configuration of the paper.
func paperObjects(q, di int) ObjectsParams {
	return ObjectsParams{
		D: 3000, Di: di, Q: q, C: 3, G: 20,
		P: 0.01, VarianceRatio: 0.15,
	}
}

func TestFig1MonotoneInInputSize(t *testing.T) {
	prev := -1.0
	for q := 2; q <= 20; q++ {
		p, err := AtLeastOneRelevantGridObjects(paperObjects(q, 150))
		if err != nil {
			t.Fatal(err)
		}
		if p < prev-1e-9 {
			t.Errorf("probability not monotone at q=%d: %v -> %v", q, prev, p)
		}
		prev = p
	}
}

func TestFig1SharpRiseThenPlateau(t *testing.T) {
	// The paper: at d_i/d = 5%, 5 labeled objects give ≈100% guarantee.
	p5, err := AtLeastOneRelevantGridObjects(paperObjects(5, 150))
	if err != nil {
		t.Fatal(err)
	}
	if p5 < 0.9 {
		t.Errorf("P(q=5, 5%%) = %v, paper says ≈1", p5)
	}
	// Plateau: q=10 adds little.
	p10, _ := AtLeastOneRelevantGridObjects(paperObjects(10, 150))
	if p10-p5 > 0.1 {
		t.Errorf("plateau missing: p5=%v p10=%v", p5, p10)
	}
	// Tiny inputs do much worse.
	p2, _ := AtLeastOneRelevantGridObjects(paperObjects(2, 150))
	if p2 > p5-0.05 {
		t.Errorf("q=2 (%v) should be clearly below q=5 (%v)", p2, p5)
	}
}

func TestFig1HigherDimensionalityHelpsObjects(t *testing.T) {
	// For fixed input size, probability increases with d_i/d — the paper's
	// "input objects work better when clusters have more relevant dims".
	prev := -1.0
	for _, di := range []int{30, 60, 150, 300} {
		p, err := AtLeastOneRelevantGridObjects(paperObjects(4, di))
		if err != nil {
			t.Fatal(err)
		}
		if p < prev {
			t.Errorf("not increasing in di at di=%d: %v -> %v", di, prev, p)
		}
		prev = p
	}
}

func TestFig1DegenerateInputs(t *testing.T) {
	p, err := AtLeastOneRelevantGridObjects(paperObjects(1, 150))
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("q=1 cannot form a temporary cluster; got %v", p)
	}
	if _, err := AtLeastOneRelevantGridObjects(ObjectsParams{D: 0}); err == nil {
		t.Error("invalid D should error")
	}
	bad := paperObjects(5, 150)
	bad.P = 0
	if _, err := AtLeastOneRelevantGridObjects(bad); err == nil {
		t.Error("P=0 should error")
	}
	bad = paperObjects(5, 150)
	bad.VarianceRatio = 1.5
	if _, err := AtLeastOneRelevantGridObjects(bad); err == nil {
		t.Error("VarianceRatio>1 should error")
	}
}

func TestFig1WeightRatioHelps(t *testing.T) {
	uniform := paperObjects(3, 30)
	weighted := uniform
	weighted.WeightRatio = 3
	pu, err := AtLeastOneRelevantGridObjects(uniform)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := AtLeastOneRelevantGridObjects(weighted)
	if err != nil {
		t.Fatal(err)
	}
	if pw < pu {
		t.Errorf("φ-weighted draws (%v) should not underperform uniform (%v)", pw, pu)
	}
}

func paperDims(l, di int) DimsParams {
	return DimsParams{D: 3000, Di: di, K: 5, L: l, C: 3, G: 20}
}

func TestFig2MoreLabeledDimsHelp(t *testing.T) {
	p3, err := AtLeastOneExclusiveGridDims(paperDims(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	p8, err := AtLeastOneExclusiveGridDims(paperDims(8, 30))
	if err != nil {
		t.Fatal(err)
	}
	if p8 < p3 {
		t.Errorf("more labeled dims should help: L=3 %v, L=8 %v", p3, p8)
	}
}

func TestFig2LabeledDimsBetterAtLowDimensionality(t *testing.T) {
	// The paper's key asymmetry: labeled dimensions work better when
	// d_i/d is small (fewer chances for a dim to serve multiple clusters).
	low, err := AtLeastOneExclusiveGridDims(paperDims(4, 30)) // 1%
	if err != nil {
		t.Fatal(err)
	}
	high, err := AtLeastOneExclusiveGridDims(paperDims(4, 600)) // 20%
	if err != nil {
		t.Fatal(err)
	}
	if low <= high {
		t.Errorf("exclusivity should fall with d_i/d: 1%% %v vs 20%% %v", low, high)
	}
	if low < 0.8 {
		t.Errorf("at 1%% dims a handful of labeled dims should suffice: %v", low)
	}
}

func TestFig2ComplementOfFig1(t *testing.T) {
	// Cross-check the paper's conclusion: at extremely low dimensionality,
	// labeled dimensions beat labeled objects for the same input size.
	obj, err := AtLeastOneRelevantGridObjects(paperObjects(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	dim, err := AtLeastOneExclusiveGridDims(paperDims(3, 30))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("1%% dims, input size 3: objects %v, dims %v", obj, dim)
	if dim <= obj {
		t.Errorf("labeled dims (%v) should beat labeled objects (%v) at 1%% dims", dim, obj)
	}
}

func TestFig2Degenerate(t *testing.T) {
	p, err := AtLeastOneExclusiveGridDims(paperDims(0, 30))
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Errorf("L=0 should give 0, got %v", p)
	}
	if _, err := AtLeastOneExclusiveGridDims(DimsParams{D: 10, Di: 3, K: 0, L: 2, C: 3, G: 5}); err == nil {
		t.Error("K=0 should error")
	}
	// K=1: every labeled dim is exclusive by definition.
	p, err = AtLeastOneExclusiveGridDims(DimsParams{D: 100, Di: 10, K: 1, L: 5, C: 3, G: 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1) > 1e-9 {
		t.Errorf("K=1 should give 1, got %v", p)
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	for q := 2; q <= 12; q += 2 {
		for _, di := range []int{30, 150, 300} {
			p, err := AtLeastOneRelevantGridObjects(paperObjects(q, di))
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > 1 {
				t.Fatalf("Fig1 probability out of range: %v", p)
			}
		}
	}
	for l := 1; l <= 8; l++ {
		for _, di := range []int{30, 150, 300} {
			p, err := AtLeastOneExclusiveGridDims(paperDims(l, di))
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > 1 {
				t.Fatalf("Fig2 probability out of range: %v", p)
			}
		}
	}
}
