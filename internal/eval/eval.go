// Package eval implements the external cluster-quality metrics used in the
// paper's evaluation: the Adjusted Rand Index in the exact form of Equation 5
// (the Yeung–Ruzzo formulation the paper cites), plus the standard
// Hubert–Arabie ARI, purity, normalized mutual information, and
// dimension-selection precision/recall for projected clusters.
//
// Outliers (label −1) on either side are treated as singletons: an outlier is
// never "in the same cluster" as any other object. This penalizes discarding
// real cluster members while not rewarding lucky co-assignment.
package eval

import (
	"errors"
	"math"
	"sort"
)

var (
	errLengthMismatch = errors.New("eval: partition length mismatch")
	errEmpty          = errors.New("eval: empty partitions")
)

// PairCounts holds the four pair-counting quantities of the paper's
// Equation 5 over all object pairs: A = same cluster in both partitions,
// B = same in truth only, C = same in prediction only, D = different in both.
type PairCounts struct {
	A, B, C, D float64
}

// CountPairs computes pair counts between a ground-truth partition and a
// predicted partition. Both slices must have the same length; −1 entries are
// singletons.
func CountPairs(truth, pred []int) (PairCounts, error) {
	if len(truth) != len(pred) {
		return PairCounts{}, errLengthMismatch
	}
	n := len(truth)

	// Contingency table via composite keys. Outliers are remapped to unique
	// negative ids so that they form singleton groups.
	nextTruthOutlier, nextPredOutlier := -1, -1
	tkey := make([]int, n)
	pkey := make([]int, n)
	for i := 0; i < n; i++ {
		if truth[i] < 0 {
			tkey[i] = nextTruthOutlier
			nextTruthOutlier--
		} else {
			tkey[i] = truth[i]
		}
		if pred[i] < 0 {
			pkey[i] = nextPredOutlier
			nextPredOutlier--
		} else {
			pkey[i] = pred[i]
		}
	}

	cell := make(map[[2]int]int)
	rowSum := make(map[int]int)
	colSum := make(map[int]int)
	for i := 0; i < n; i++ {
		cell[[2]int{tkey[i], pkey[i]}]++
		rowSum[tkey[i]]++
		colSum[pkey[i]]++
	}

	choose2 := func(m int) float64 { return float64(m) * float64(m-1) / 2 }

	var sumCell, sumRow, sumCol float64
	for _, c := range cell {
		sumCell += choose2(c)
	}
	for _, c := range rowSum {
		sumRow += choose2(c)
	}
	for _, c := range colSum {
		sumCol += choose2(c)
	}
	total := choose2(n)

	pc := PairCounts{
		A: sumCell,
		B: sumRow - sumCell,
		C: sumCol - sumCell,
	}
	pc.D = total - pc.A - pc.B - pc.C
	return pc, nil
}

// ARI computes the Adjusted Rand Index exactly as the paper's Equation 5:
//
//	ARI = 2(ad − bc) / ((a+b)(b+d) + (a+c)(c+d))
//
// It is 1 for identical partitions and ≈0 for a random partition.
func ARI(truth, pred []int) (float64, error) {
	pc, err := CountPairs(truth, pred)
	if err != nil {
		return math.NaN(), err
	}
	num := 2 * (pc.A*pc.D - pc.B*pc.C)
	den := (pc.A+pc.B)*(pc.B+pc.D) + (pc.A+pc.C)*(pc.C+pc.D)
	if den == 0 {
		// Both partitions are single-cluster or all-singleton: define as 1
		// when identical pair structure, else 0.
		if pc.B == 0 && pc.C == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return num / den, nil
}

// ARIHubertArabie computes the standard Hubert–Arabie adjusted Rand index,
// provided as a cross-check on the paper's variant.
func ARIHubertArabie(truth, pred []int) (float64, error) {
	pc, err := CountPairs(truth, pred)
	if err != nil {
		return math.NaN(), err
	}
	sumRow := pc.A + pc.B
	sumCol := pc.A + pc.C
	total := pc.A + pc.B + pc.C + pc.D
	if total == 0 {
		return 1, nil
	}
	expected := sumRow * sumCol / total
	maxIdx := (sumRow + sumCol) / 2
	if maxIdx == expected {
		if pc.B == 0 && pc.C == 0 {
			return 1, nil
		}
		return 0, nil
	}
	return (pc.A - expected) / (maxIdx - expected), nil
}

// Filter returns copies of truth and pred with the objects in drop removed.
// The paper removes labeled objects from the clusters before computing ARI
// so the reported gain is not just the inputs themselves (§5).
func Filter(truth, pred []int, drop map[int]bool) (ft, fp []int) {
	for i := range truth {
		if drop[i] {
			continue
		}
		ft = append(ft, truth[i])
		fp = append(fp, pred[i])
	}
	return ft, fp
}

// Purity returns the weighted fraction of objects in each predicted cluster
// that belong to the cluster's majority class. Outlier predictions count as
// impure unless the true label is also an outlier.
func Purity(truth, pred []int) (float64, error) {
	if len(truth) != len(pred) {
		return math.NaN(), errLengthMismatch
	}
	if len(truth) == 0 {
		return math.NaN(), errEmpty
	}
	counts := make(map[int]map[int]int)
	for i := range pred {
		m, ok := counts[pred[i]]
		if !ok {
			m = make(map[int]int)
			counts[pred[i]] = m
		}
		m[truth[i]]++
	}
	correct := 0
	for _, m := range counts {
		best := 0
		for _, c := range m {
			if c > best {
				best = c
			}
		}
		correct += best
	}
	return float64(correct) / float64(len(truth)), nil
}

// NMI returns the normalized mutual information between the partitions using
// the sqrt(H(U)H(V)) normalization. Outliers participate as one extra group
// per side.
func NMI(truth, pred []int) (float64, error) {
	if len(truth) != len(pred) {
		return math.NaN(), errLengthMismatch
	}
	n := float64(len(truth))
	if n == 0 {
		return math.NaN(), errEmpty
	}
	joint := make(map[[2]int]float64)
	pu := make(map[int]float64)
	pv := make(map[int]float64)
	for i := range truth {
		joint[[2]int{truth[i], pred[i]}]++
		pu[truth[i]]++
		pv[pred[i]]++
	}
	// Every sum runs in ascending key order, so the result's bits do not
	// depend on Go's map iteration order.
	pairs := make([][2]int, 0, len(joint))
	for key := range joint {
		pairs = append(pairs, key)
	}
	sort.Slice(pairs, func(a, b int) bool {
		return pairs[a][0] < pairs[b][0] || pairs[a][0] == pairs[b][0] && pairs[a][1] < pairs[b][1]
	})
	mi := 0.0
	for _, key := range pairs {
		pxy := joint[key] / n
		px := pu[key[0]] / n
		py := pv[key[1]] / n
		mi += pxy * math.Log(pxy/(px*py))
	}
	entropy := func(p map[int]float64) float64 {
		labels := make([]int, 0, len(p))
		for l := range p {
			labels = append(labels, l)
		}
		sort.Ints(labels)
		h := 0.0
		for _, l := range labels {
			q := p[l] / n
			h -= q * math.Log(q)
		}
		return h
	}
	hu, hv := entropy(pu), entropy(pv)
	if hu == 0 && hv == 0 {
		return 1, nil
	}
	if hu == 0 || hv == 0 {
		return 0, nil
	}
	return mi / math.Sqrt(hu*hv), nil
}

// MatchClusters returns, for each predicted cluster 0..k−1, the true class
// with the largest member overlap (greedy one-to-one matching, largest
// overlaps first). Unmatched clusters map to −1. It is used to compare
// selected dimensions against each class's true relevant dimensions.
func MatchClusters(truth, pred []int, k int) []int {
	type pair struct {
		cluster, class, overlap int
	}
	overlap := make(map[[2]int]int)
	classes := make(map[int]bool)
	for i := range pred {
		if pred[i] < 0 || truth[i] < 0 {
			continue
		}
		overlap[[2]int{pred[i], truth[i]}]++
		classes[truth[i]] = true
	}
	var pairs []pair
	for key, c := range overlap {
		pairs = append(pairs, pair{key[0], key[1], c})
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].overlap != pairs[j].overlap {
			return pairs[i].overlap > pairs[j].overlap
		}
		if pairs[i].cluster != pairs[j].cluster {
			return pairs[i].cluster < pairs[j].cluster
		}
		return pairs[i].class < pairs[j].class
	})
	match := make([]int, k)
	for i := range match {
		match[i] = -1
	}
	usedClass := make(map[int]bool)
	for _, p := range pairs {
		if p.cluster < 0 || p.cluster >= k {
			continue
		}
		if match[p.cluster] != -1 || usedClass[p.class] {
			continue
		}
		match[p.cluster] = p.class
		usedClass[p.class] = true
	}
	return match
}

// DimQuality holds micro-averaged precision/recall/F1 of selected dimensions
// against the true relevant dimensions, after matching clusters to classes.
type DimQuality struct {
	Precision, Recall, F1 float64
}

// DimSelectionQuality compares each cluster's selected dimensions with the
// relevant dimensions of its matched class. trueDims is indexed by class.
func DimSelectionQuality(truth, pred []int, predDims [][]int, trueDims [][]int) DimQuality {
	k := len(predDims)
	match := MatchClusters(truth, pred, k)
	var tp, selected, relevant float64
	for c := 0; c < k; c++ {
		class := match[c]
		if class < 0 || class >= len(trueDims) {
			selected += float64(len(predDims[c]))
			continue
		}
		truthSet := make(map[int]bool, len(trueDims[class]))
		for _, j := range trueDims[class] {
			truthSet[j] = true
		}
		relevant += float64(len(trueDims[class]))
		selected += float64(len(predDims[c]))
		for _, j := range predDims[c] {
			if truthSet[j] {
				tp++
			}
		}
	}
	var q DimQuality
	if selected > 0 {
		q.Precision = tp / selected
	}
	if relevant > 0 {
		q.Recall = tp / relevant
	}
	if q.Precision+q.Recall > 0 {
		q.F1 = 2 * q.Precision * q.Recall / (q.Precision + q.Recall)
	}
	return q
}
