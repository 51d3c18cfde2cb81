package cluster

import (
	"math"
	"testing"
)

func TestSizes(t *testing.T) {
	r := &Result{K: 3, Assignments: []int{0, 0, 1, Outlier, Outlier}}
	sizes, outliers := r.Sizes()
	if sizes[0] != 2 || sizes[1] != 1 || sizes[2] != 0 || outliers != 2 {
		t.Errorf("Sizes = %v, %d", sizes, outliers)
	}
}

func TestBetterDirection(t *testing.T) {
	hi := &Result{ScoreHigherIsBetter: true}
	lo := &Result{ScoreHigherIsBetter: false}
	if !hi.Better(2, 1) || hi.Better(1, 2) {
		t.Error("higher-is-better broken")
	}
	if !lo.Better(1, 2) || lo.Better(2, 1) {
		t.Error("lower-is-better broken")
	}
}

func TestValidateCatchesBadStructures(t *testing.T) {
	good := &Result{K: 2, Assignments: []int{0, 1, Outlier}, Dims: [][]int{{0, 2}, {1}}}
	if err := good.Validate(3, 3); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	bad := []*Result{
		{K: 0, Assignments: []int{}},
		{K: 2, Assignments: []int{0}},                                  // wrong length
		{K: 2, Assignments: []int{0, 5, 0}},                            // assignment out of range
		{K: 2, Assignments: []int{0, 1, 0}, Dims: [][]int{{0}}},        // wrong dim set count
		{K: 2, Assignments: []int{0, 1, 0}, Dims: [][]int{{2, 0}, {}}}, // unsorted
		{K: 2, Assignments: []int{0, 1, 0}, Dims: [][]int{{0, 9}, {}}}, // dim out of range
		{K: 2, Assignments: []int{0, 1, 0}, Dims: [][]int{{0, 0}, {}}}, // duplicate dim
	}
	for i, r := range bad {
		if err := r.Validate(3, 3); err == nil {
			t.Errorf("bad result %d accepted", i)
		}
	}
}

func TestBestResult(t *testing.T) {
	if BestResult(nil) != nil {
		t.Error("BestResult(nil) != nil")
	}

	higher := func(score float64, iters int) *Result {
		return &Result{K: 1, Score: score, ScoreHigherIsBetter: true, Iterations: iters}
	}
	rs := []*Result{higher(1, 10), higher(3, 20), higher(3, 30), higher(2, 40)}
	best := BestResult(rs)
	if best != rs[1] {
		t.Errorf("picked score %v, want the first of the tied maxima", best.Score)
	}
	if best.Iterations != 100 {
		t.Errorf("Iterations = %d, want the 100 summed across restarts", best.Iterations)
	}

	lower := func(score float64) *Result {
		return &Result{K: 1, Score: score, ScoreHigherIsBetter: false}
	}
	if got := BestResult([]*Result{lower(5), lower(2), lower(7)}); got.Score != 2 {
		t.Errorf("lower-is-better picked %v, want 2", got.Score)
	}
}

// Servable returns the snapshot itself when every triple is valid and nil
// when any one is not.
func TestServable(t *testing.T) {
	const d = 4
	good := func() []FittedCluster {
		return []FittedCluster{
			{Dims: []int{0, 2}, Rep: []float64{1, -1}, SHat: []float64{0.5, 2}},
			{}, // a cluster with no selected dimensions is servable
			{Dims: []int{3}, Rep: []float64{0}, SHat: []float64{1}},
		}
	}
	fitted := good()
	if got := Servable(fitted, d); len(got) != len(fitted) || &got[0] != &fitted[0] {
		t.Errorf("valid: Servable = %v, want the snapshot itself", got)
	}
	for _, tc := range []struct {
		name   string
		break_ func(f []FittedCluster)
	}{
		{"zero threshold", func(f []FittedCluster) { f[2].SHat[0] = 0 }},
		{"NaN representative", func(f []FittedCluster) { f[0].Rep[1] = math.NaN() }},
		{"unsorted dims", func(f []FittedCluster) { f[0].Dims[0], f[0].Dims[1] = 2, 0 }},
	} {
		fitted := good()
		tc.break_(fitted)
		if got := Servable(fitted, d); got != nil {
			t.Errorf("%s: Servable = %v, want nil", tc.name, got)
		}
	}
	if got := Servable(nil, d); got != nil {
		t.Errorf("Servable(nil) = %v, want nil", got)
	}
}

// CopyFrom deep-copies, reuses the destination's buffers, and leaves an
// empty source slice nil in a zero destination.
func TestFittedCopyFrom(t *testing.T) {
	src := FittedCluster{Dims: []int{1, 3}, Rep: []float64{2, 4}, SHat: []float64{1, 1}}
	var dst FittedCluster
	dst.CopyFrom(&src)
	src.Rep[0] = 99
	if dst.Rep[0] != 2 || len(dst.Dims) != 2 || dst.Dims[1] != 3 || dst.SHat[1] != 1 {
		t.Errorf("CopyFrom shares memory or drops values: %+v", dst)
	}
	buf := &dst.Dims[0]
	dst.CopyFrom(&FittedCluster{Dims: []int{0}, Rep: []float64{0}, SHat: []float64{1}})
	if &dst.Dims[0] != buf {
		t.Error("CopyFrom reallocated a buffer with room")
	}
	var empty FittedCluster
	empty.CopyFrom(&FittedCluster{Dims: []int{}, Rep: []float64{}, SHat: []float64{}})
	if empty.Dims != nil || empty.Rep != nil || empty.SHat != nil {
		t.Errorf("empty source copied to non-nil slices: %#v", empty)
	}
}
