// Package analysis reproduces the closed-form input-knowledge analysis of
// §4.5 of the SSPC paper (Figures 1 and 2): how likely is the grid-based
// initialization to build at least one grid whose building dimensions are
// all truly relevant to the target cluster, as a function of how much
// knowledge is supplied.
//
// The paper defers the exact formulas to its technical report (TR-2004-08),
// which is not publicly archived; the models here are re-derived from the
// setup the paper states (chi-square selection probabilities for the
// temporary cluster, uniform grid-dimension draws, independence across
// grids) and reproduce every qualitative claim the paper reads off the
// figures. See DESIGN.md for the substitution note.
package analysis

import (
	"errors"
	"math"

	"repro/internal/stats"
)

// ObjectsParams parameterizes the Figure 1 model: only labeled objects are
// available.
type ObjectsParams struct {
	D  int // total dimensions (paper: 3000)
	Di int // relevant dimensions of the target cluster
	Q  int // |Io_i|, the number of labeled objects
	C  int // building dimensions per grid (paper: 3)
	G  int // number of grids per seed group (paper: 20)

	// P is the selection threshold parameter (paper: 0.01); an irrelevant
	// dimension passes SelectDim on the temporary cluster with probability
	// P by construction.
	P float64
	// VarianceRatio is σ²_local/σ²_global (paper: 0.15).
	VarianceRatio float64
	// WeightRatio is the relative draw weight of a relevant candidate over
	// an irrelevant one (φ-proportional sampling makes it > 1); 0 means 1
	// (uniform draws), the conservative default.
	WeightRatio float64
}

// AtLeastOneRelevantGridObjects returns the probability that at least one
// of the G grids is built from relevant dimensions only, when the candidate
// set comes from SelectDim on the temporary cluster of Q labeled objects
// (Figure 1).
//
// Model: a relevant dimension enters the candidate set with probability
// P(s² < ŝ² | local), computed from the chi-square sampling distribution at
// sample size Q; an irrelevant one with probability P. The expected
// candidate counts R and I then give the probability that C draws without
// replacement are all relevant, and the G grids are independent.
func AtLeastOneRelevantGridObjects(p ObjectsParams) (float64, error) {
	if err := validateCommon(p.D, p.Di, p.C, p.G); err != nil {
		return math.NaN(), err
	}
	if p.Q < 2 {
		return 0, nil // no temporary cluster can be formed
	}
	if p.P <= 0 || p.P >= 1 {
		return math.NaN(), errors.New("analysis: P out of (0,1)")
	}
	if p.VarianceRatio <= 0 || p.VarianceRatio >= 1 {
		return math.NaN(), errors.New("analysis: VarianceRatio out of (0,1)")
	}
	w := p.WeightRatio
	if w <= 0 {
		w = 1
	}

	// Selection threshold as a fraction of the global variance at sample
	// size Q, and the resulting per-dimension selection probabilities.
	nu := float64(p.Q - 1)
	quant, err := stats.ChiSquareQuantile(p.P, nu)
	if err != nil {
		return math.NaN(), err
	}
	thresholdFrac := quant / nu
	pRel, err := stats.SelectionProbability(thresholdFrac, p.VarianceRatio, p.Q)
	if err != nil {
		return math.NaN(), err
	}

	r := float64(p.Di) * pRel    // expected relevant candidates
	i := float64(p.D-p.Di) * p.P // expected irrelevant candidates
	pGrid := allRelevantDraw(r*w, i, p.C, w)
	return atLeastOne(pGrid, p.G), nil
}

// allRelevantDraw returns the probability that c sequential draws without
// replacement from a pool with (weighted) relevant mass r and irrelevant
// mass i are all relevant. w is the per-unit weight of relevant items (used
// to decrement the pool correctly).
func allRelevantDraw(r, i float64, c int, w float64) float64 {
	p := 1.0
	for t := 0; t < c; t++ {
		rEff := r - float64(t)*w
		if rEff <= 0 {
			return 0
		}
		p *= rEff / (rEff + i)
	}
	return p
}

// DimsParams parameterizes the Figure 2 model: only labeled dimensions are
// available.
type DimsParams struct {
	D  int // total dimensions
	Di int // relevant dimensions per cluster (all clusters alike)
	K  int // number of clusters (paper: 5)
	L  int // |Iv_i|, the number of labeled dimensions
	C  int // building dimensions per grid
	G  int // number of grids
}

// AtLeastOneExclusiveGridDims returns the probability that at least one
// grid has all building dimensions relevant to the target cluster only
// (Figure 2).
//
// Model: each labeled dimension is relevant to the target cluster by
// assumption and additionally relevant to any of the other K−1 clusters
// independently with probability Di/D, so it is "exclusive" with
// probability e = (1 − Di/D)^(K−1). The number of exclusive labeled
// dimensions is Binomial(L, e). A grid draws min(C, L) dimensions uniformly
// without replacement from the L labeled ones; conditioned on E exclusive
// dimensions the draw is all-exclusive with hypergeometric probability
// C(E,c)/C(L,c), and the G grids are independent draws.
func AtLeastOneExclusiveGridDims(p DimsParams) (float64, error) {
	if err := validateCommon(p.D, p.Di, p.C, p.G); err != nil {
		return math.NaN(), err
	}
	if p.K < 1 {
		return math.NaN(), errors.New("analysis: K must be >= 1")
	}
	if p.L <= 0 {
		return 0, nil
	}
	e := math.Pow(1-float64(p.Di)/float64(p.D), float64(p.K-1))
	c := p.C
	if c > p.L {
		c = p.L
	}
	// Expectation over E ~ Binomial(L, e).
	total := 0.0
	for E := 0; E <= p.L; E++ {
		pe := stats.BinomialPMF(p.L, e, E)
		if pe == 0 {
			continue
		}
		var pGrid float64
		if E >= c {
			pGrid = stats.Choose(E, c) / stats.Choose(p.L, c)
		}
		g := p.G
		if p.L == c {
			g = 1 // only one distinct grid exists
		}
		total += pe * atLeastOne(pGrid, g)
	}
	return total, nil
}

func atLeastOne(pGrid float64, g int) float64 {
	if pGrid <= 0 {
		return 0
	}
	if pGrid >= 1 {
		return 1
	}
	return 1 - math.Pow(1-pGrid, float64(g))
}

func validateCommon(d, di, c, g int) error {
	if d <= 0 || di <= 0 || di > d {
		return errors.New("analysis: need 0 < Di <= D")
	}
	if c <= 0 {
		return errors.New("analysis: need C > 0")
	}
	if g <= 0 {
		return errors.New("analysis: need G > 0")
	}
	return nil
}
