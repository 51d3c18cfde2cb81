package dataset

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// Normalization prepares real datasets whose dimensions live on different
// scales. The synthetic generator emits a common scale, but CSV inputs
// (gene expression, nutrition tables) generally do not; the distance-based
// algorithms and the width parameters of DOC/CLIQUE assume comparable
// scales across dimensions.

// Normalize applies the named preprocessing: "none" or "" returns ds
// itself, "zscore", "minmax" and "robust" return a normalized copy, and any
// other name is an error.
func Normalize(ds *Dataset, method string) (*Dataset, error) {
	switch method {
	case "", "none":
		return ds, nil
	case "zscore":
		return ZScoreNormalize(ds)
	case "minmax":
		return MinMaxNormalize(ds)
	case "robust":
		return RobustNormalize(ds)
	}
	return nil, fmt.Errorf("unknown normalization %q", method)
}

// ZScoreNormalize returns a copy of the dataset with every column
// standardized to zero mean and unit sample variance. Constant columns
// become all-zero.
func ZScoreNormalize(ds *Dataset) (*Dataset, error) {
	if ds == nil {
		return nil, errors.New("dataset: nil dataset")
	}
	out := ds.Clone()
	for j := 0; j < ds.d; j++ {
		mean := ds.ColMean(j)
		sd := math.Sqrt(ds.ColVariance(j))
		if sd == 0 {
			for i := 0; i < ds.n; i++ {
				out.Set(i, j, 0)
			}
			continue
		}
		for i := 0; i < ds.n; i++ {
			out.Set(i, j, (ds.At(i, j)-mean)/sd)
		}
	}
	return out, nil
}

// MinMaxNormalize returns a copy with every column rescaled to [0, 1].
// Constant columns become all-zero.
func MinMaxNormalize(ds *Dataset) (*Dataset, error) {
	if ds == nil {
		return nil, errors.New("dataset: nil dataset")
	}
	out := ds.Clone()
	for j := 0; j < ds.d; j++ {
		lo, hi := ds.ColMin(j), ds.ColMax(j)
		span := hi - lo
		if span == 0 {
			for i := 0; i < ds.n; i++ {
				out.Set(i, j, 0)
			}
			continue
		}
		for i := 0; i < ds.n; i++ {
			out.Set(i, j, (ds.At(i, j)-lo)/span)
		}
	}
	return out, nil
}

// RobustNormalize returns a copy with every column centered at its median
// and scaled by 1.4826·MAD (the Gaussian-consistent robust scale), which
// keeps outliers from dominating the normalization — in keeping with the
// paper's robustness theme. Columns with zero MAD fall back to z-scoring;
// constant columns become all-zero.
func RobustNormalize(ds *Dataset) (*Dataset, error) {
	if ds == nil {
		return nil, errors.New("dataset: nil dataset")
	}
	out := ds.Clone()
	col := make([]float64, ds.n)
	for j := 0; j < ds.d; j++ {
		ds.ColInto(j, col)
		med := stats.Median(col)
		scale := 1.4826 * stats.MAD(col)
		if scale == 0 {
			sd := math.Sqrt(ds.ColVariance(j))
			if sd == 0 {
				for i := 0; i < ds.n; i++ {
					out.Set(i, j, 0)
				}
				continue
			}
			scale = sd
		}
		for i := 0; i < ds.n; i++ {
			out.Set(i, j, (ds.At(i, j)-med)/scale)
		}
	}
	return out, nil
}
