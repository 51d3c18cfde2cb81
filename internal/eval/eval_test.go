package eval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestARIIdenticalPartitions(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	got, err := ARI(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("ARI(identical) = %v, want 1", got)
	}
}

func TestARIRelabelInvariance(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	pred := []int{2, 2, 0, 0, 1, 1} // same partition, different labels
	got, err := ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("ARI(relabel) = %v, want 1", got)
	}
}

func TestARIRandomNearZero(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 2000
	truth := make([]int, n)
	pred := make([]int, n)
	for i := 0; i < n; i++ {
		truth[i] = rng.Intn(4)
		pred[i] = rng.Intn(4)
	}
	got, err := ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got) > 0.05 {
		t.Errorf("ARI(random) = %v, want ≈0", got)
	}
}

func TestARIHandComputed(t *testing.T) {
	// truth: {0,1},{2,3}; pred: {0},{1,2,3}
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 1, 1, 1}
	// Pairs: (0,1):same-T diff-P → b. (0,2),(0,3): diff-T diff-P → d.
	// (1,2),(1,3): diff-T same-P → c. (2,3): same both → a.
	// a=1,b=1,c=2,d=2. ARI = 2(1·2−1·2)/((2)(3)+(3)(4)) = 0.
	got, err := ARI(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("hand-computed ARI = %v, want 0", got)
	}
	pc, _ := CountPairs(truth, pred)
	if pc.A != 1 || pc.B != 1 || pc.C != 2 || pc.D != 2 {
		t.Errorf("pair counts = %+v", pc)
	}
}

func TestARIOutliersAreSingletons(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	// Predicting two objects as outliers breaks their pairs.
	pred := []int{0, 0, -1, -1}
	pc, err := CountPairs(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1) same both → a=1. (2,3) same-T but split in P → b=1.
	if pc.A != 1 || pc.B != 1 {
		t.Errorf("outlier pair counts = %+v", pc)
	}
	// Two distinct outliers must NOT count as the same cluster.
	pred2 := []int{0, 0, -1, 2}
	pc2, _ := CountPairs(truth, pred2)
	if pc2.A != 1 || pc2.B != 1 {
		t.Errorf("mixed outlier pair counts = %+v", pc2)
	}
}

func TestARIPerfectBeatsPartial(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	perfect := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	partial := []int{0, 0, 1, 1, 1, 1, 2, 2, 2}
	ap, _ := ARI(truth, perfect)
	aq, _ := ARI(truth, partial)
	if !(ap > aq) {
		t.Errorf("perfect %v should beat partial %v", ap, aq)
	}
}

func TestARILengthMismatch(t *testing.T) {
	if _, err := ARI([]int{0}, []int{0, 1}); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestARIDegenerateSingleCluster(t *testing.T) {
	truth := []int{0, 0, 0}
	got, err := ARI(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Errorf("single-cluster identical = %v", got)
	}
}

func TestHubertArabieAgreesOnStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 300
	truth := make([]int, n)
	good := make([]int, n)
	bad := make([]int, n)
	for i := range truth {
		truth[i] = rng.Intn(3)
		good[i] = truth[i]
		if rng.Float64() < 0.15 {
			good[i] = rng.Intn(3)
		}
		bad[i] = rng.Intn(3)
	}
	yrGood, _ := ARI(truth, good)
	yrBad, _ := ARI(truth, bad)
	haGood, _ := ARIHubertArabie(truth, good)
	haBad, _ := ARIHubertArabie(truth, bad)
	if !(yrGood > yrBad) || !(haGood > haBad) {
		t.Errorf("both indices should rank good > bad: YR %v/%v HA %v/%v",
			yrGood, yrBad, haGood, haBad)
	}
	if haGood < 0.4 || yrGood < 0.4 {
		t.Errorf("good clustering scored too low: YR %v HA %v", yrGood, haGood)
	}
}

func TestFilterDropsObjects(t *testing.T) {
	truth := []int{0, 1, 2, 0}
	pred := []int{0, 1, 2, 1}
	ft, fp := Filter(truth, pred, map[int]bool{1: true, 3: true})
	if len(ft) != 2 || ft[0] != 0 || ft[1] != 2 || fp[1] != 2 {
		t.Errorf("Filter = %v %v", ft, fp)
	}
}

func TestPurity(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 1}
	pred := []int{0, 0, 1, 1, 1, 1}
	// cluster 0: {0,0} pure (2). cluster 1: {0,1,1,1} majority 3.
	got, err := Purity(truth, pred)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5.0/6.0 {
		t.Errorf("Purity = %v, want 5/6", got)
	}
	if _, err := Purity(nil, nil); err == nil {
		t.Error("empty should error")
	}
}

func TestNMIPerfectAndIndependent(t *testing.T) {
	truth := []int{0, 0, 1, 1, 2, 2}
	got, err := NMI(truth, truth)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-1) > 1e-12 {
		t.Errorf("NMI(identical) = %v", got)
	}
	single := []int{0, 0, 0, 0, 0, 0}
	got, err = NMI(truth, single)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("NMI vs constant = %v, want 0", got)
	}
}

func TestMatchClustersGreedy(t *testing.T) {
	truth := []int{0, 0, 0, 1, 1, 2}
	pred := []int{1, 1, 1, 0, 0, 2}
	match := MatchClusters(truth, pred, 3)
	if match[1] != 0 || match[0] != 1 || match[2] != 2 {
		t.Errorf("match = %v", match)
	}
}

func TestMatchClustersUnmatched(t *testing.T) {
	truth := []int{0, 0, 0}
	pred := []int{0, 0, 0} // clusters 1 and 2 never appear
	match := MatchClusters(truth, pred, 3)
	if match[0] != 0 || match[1] != -1 || match[2] != -1 {
		t.Errorf("match = %v", match)
	}
}

func TestDimSelectionQuality(t *testing.T) {
	truth := []int{0, 0, 1, 1}
	pred := []int{0, 0, 1, 1}
	trueDims := [][]int{{0, 1, 2}, {3, 4}}
	predDims := [][]int{{0, 1}, {3, 4, 5}}
	q := DimSelectionQuality(truth, pred, predDims, trueDims)
	// tp = 2 + 2 = 4; selected = 5; relevant = 5.
	if math.Abs(q.Precision-0.8) > 1e-12 || math.Abs(q.Recall-0.8) > 1e-12 {
		t.Errorf("quality = %+v", q)
	}
	if math.Abs(q.F1-0.8) > 1e-12 {
		t.Errorf("F1 = %v", q.F1)
	}
}

func TestDimSelectionQualityUnmatchedCluster(t *testing.T) {
	truth := []int{0, 0, 0, 0}
	pred := []int{0, 0, 0, 0}
	trueDims := [][]int{{0}}
	predDims := [][]int{{0}, {1, 2}} // cluster 1 unmatched; its dims hurt precision
	q := DimSelectionQuality(truth, pred, predDims, trueDims)
	if math.Abs(q.Precision-1.0/3.0) > 1e-12 || q.Recall != 1 {
		t.Errorf("quality = %+v", q)
	}
}

// Property: ARI is symmetric in its arguments.
func TestARISymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		u := make([]int, n)
		v := make([]int, n)
		for i := 0; i < n; i++ {
			u[i] = rng.Intn(4)
			v[i] = rng.Intn(4)
		}
		a, err1 := ARI(u, v)
		b, err2 := ARI(v, u)
		return err1 == nil && err2 == nil && math.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: ARI is bounded above by 1 and equals 1 only for identical pair
// structure.
func TestARIBoundedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		u := make([]int, n)
		v := make([]int, n)
		for i := 0; i < n; i++ {
			u[i] = rng.Intn(3)
			v[i] = rng.Intn(3)
		}
		a, err := ARI(u, v)
		return err == nil && a <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
