package sspc

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"
)

// fingerprint condenses a Result's assignments, selected dimensions, and
// score into one comparable string.
func fingerprint(res *Result) string {
	h := fnv.New64a()
	for _, a := range res.Assignments {
		fmt.Fprintf(h, "%d,", a)
	}
	h.Write([]byte("|"))
	for _, dims := range res.Dims {
		for _, j := range dims {
			fmt.Fprintf(h, "%d,", j)
		}
		h.Write([]byte(";"))
	}
	return fmt.Sprintf("%016x score=%.12g", h.Sum64(), res.Score)
}

// detFixture is the shared small fixture of the determinism suite.
func detFixture(t testing.TB) *GroundTruth {
	t.Helper()
	gt, err := Generate(SynthConfig{N: 200, D: 30, K: 3, AvgDims: 6, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	return gt
}

// The golden fingerprints of the pre-engine serial implementations
// (captured at the commit that introduced internal/engine) live in the
// conformance table (conformanceAlgos in conformance_test.go) — one copy,
// pinned by TestConformanceRestartZeroBaseSeed and re-pinned across the
// worker sweep by TestConformanceParallelEvaluation. Worker
// invariance and the EarlyStop-off equivalence are asserted there too.

// TestSeedsProduceDifferentClusterings checks the flip side: the seed is
// not a decoration. Two runs with different seeds must explore different
// random choices and land on different results on a fixture noisy enough
// that restarts genuinely disagree.
func TestSeedsProduceDifferentClusterings(t *testing.T) {
	gt := detFixture(t)
	// HARP's randomized scan order only matters where merge order is
	// contested: a noisy fixture with heavy outliers and more requested
	// clusters than real ones.
	noisy, err := Generate(SynthConfig{N: 120, D: 15, K: 2, AvgDims: 2, OutlierFrac: 0.3, Seed: 300})
	if err != nil {
		t.Fatal(err)
	}

	assertDiffer := func(t *testing.T, run func(seed int64) (*Result, error)) {
		t.Helper()
		a, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(2)
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(a) == fingerprint(b) {
			t.Errorf("seeds 1 and 2 produced identical results: %s", fingerprint(a))
		}
	}

	t.Run("SSPC", func(t *testing.T) {
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := DefaultOptions(3)
			opts.Seed = seed
			return Cluster(context.Background(), gt.Data, opts)
		})
	})
	t.Run("PROCLUS", func(t *testing.T) {
		// On the clean fixture PROCLUS converges to the same medoid
		// structure from any seed; the noisy fixture keeps the random
		// piercing sample decisive.
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := PROCLUSDefaults(4, 3)
			opts.Seed = seed
			return PROCLUS(context.Background(), noisy.Data, opts)
		})
	})
	t.Run("CLARANS", func(t *testing.T) {
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := CLARANSDefaults(3)
			opts.Seed = seed
			opts.MaxNeighbor = 80
			return CLARANS(context.Background(), gt.Data, opts)
		})
	})
	t.Run("DOC", func(t *testing.T) {
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := DOCDefaults(3, 15)
			opts.Seed = seed
			return DOC(context.Background(), gt.Data, opts)
		})
	})
	t.Run("HARP", func(t *testing.T) {
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := HARPDefaults(6)
			opts.Seed = seed
			return HARP(context.Background(), noisy.Data, opts)
		})
	})
	t.Run("COPKMeans", func(t *testing.T) {
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := COPKMeansDefaults(3)
			opts.Seed = seed
			return COPKMeans(context.Background(), gt.Data, &Constraints{}, opts)
		})
	})
	t.Run("SeedKMeans", func(t *testing.T) {
		// No knowledge: all three centroids start from random objects.
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := SeedKMeansDefaults(3)
			opts.Seed = seed
			return SeedKMeans(context.Background(), gt.Data, nil, opts)
		})
	})
	t.Run("Bicluster", func(t *testing.T) {
		// The mask drawn after the first bicluster steers the second search,
		// so K >= 2 makes the seed decisive.
		assertDiffer(t, func(seed int64) (*Result, error) {
			opts := BiclusterDefaults(2, 10)
			opts.Seed = seed
			_, res, err := Biclusters(context.Background(), noisy.Data, opts)
			return res, err
		})
	})
	// CLIQUE is deliberately absent: it draws no random numbers and takes
	// no seed.
}

// The shared-dataset race probe (all nine algorithms concurrently on one
// *Dataset) lives in the conformance suite:
// TestConformanceConcurrentSharedDataset.
