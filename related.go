package sspc

import (
	"context"
	"io"

	"repro/internal/bicluster"
	"repro/internal/clique"
	"repro/internal/copkmeans"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seedkmeans"
)

// This file exposes the algorithms of the two related problems the paper
// surveys (§2.1: subspace clustering, biclustering) and the archetypal
// semi-supervised clustering method (§2.2), plus the paper's §6 extension
// for possibly-incorrect inputs.

// CLIQUEOptions configures the CLIQUE subspace clustering baseline.
type CLIQUEOptions = clique.Options

// Subspace is one CLIQUE cluster: dimensions plus covered objects.
type Subspace = clique.Subspace

// CLIQUEDefaults returns a workable CLIQUE configuration.
func CLIQUEDefaults() CLIQUEOptions { return clique.DefaultOptions() }

// CLIQUE runs grid-based subspace clustering (Agrawal et al., SIGMOD 1998).
// It returns the raw (possibly overlapping) subspace clusters and a
// flattened disjoint partition.
func CLIQUE(ctx context.Context, ds *Dataset, opts CLIQUEOptions) ([]Subspace, *Result, error) {
	return clique.RunContext(ctx, ds, opts)
}

// BiclusterOptions configures the Cheng–Church δ-bicluster search.
type BiclusterOptions = bicluster.Options

// Bicluster is a discovered submatrix with its mean squared residue.
type Bicluster = bicluster.Bicluster

// BiclusterDefaults returns Cheng–Church defaults for k biclusters at
// residue threshold delta.
func BiclusterDefaults(k int, delta float64) BiclusterOptions {
	return bicluster.DefaultOptions(k, delta)
}

// Biclusters runs the Cheng–Church algorithm (ISMB 2000). It returns the
// raw (possibly row-overlapping) biclusters and a flattened disjoint
// partition scored by mean residue (lower is better).
func Biclusters(ctx context.Context, ds *Dataset, opts BiclusterOptions) ([]Bicluster, *Result, error) {
	return bicluster.RunContext(ctx, ds, opts)
}

// Constraints holds must-link / cannot-link pairs for COP-KMeans.
type Constraints = copkmeans.Constraints

// COPKMeansOptions configures COP-KMeans.
type COPKMeansOptions = copkmeans.Options

// ErrInfeasible is returned by COPKMeans when the constraints admit no
// assignment.
var ErrInfeasible = copkmeans.ErrInfeasible

// COPKMeansDefaults returns a standard COP-KMeans configuration.
func COPKMeansDefaults(k int) COPKMeansOptions { return copkmeans.DefaultOptions(k) }

// COPKMeans runs constrained k-means (Wagstaff et al., ICML 2001).
func COPKMeans(ctx context.Context, ds *Dataset, cons *Constraints, opts COPKMeansOptions) (*Result, error) {
	return copkmeans.RunContext(ctx, ds, cons, opts)
}

// KnowledgeReport is the outcome of validating possibly-incorrect inputs
// (the paper's §6 extension).
type KnowledgeReport = core.KnowledgeReport

// ValidateKnowledge compares the supplied knowledge against the data model
// and flags labeled objects/dimensions inconsistent with it.
// objectTolerance <= 0 uses the default (3).
func ValidateKnowledge(ds *Dataset, kn *Knowledge, opts Options, objectTolerance float64) (*KnowledgeReport, error) {
	return core.ValidateKnowledge(ds, kn, opts, objectTolerance)
}

// ClusterValidated validates the knowledge, drops suspect entries, and runs
// SSPC with the cleaned inputs. Validation is cheap and runs to completion;
// the fit itself follows the shared cancellation contract (see
// "Cancellation" in the package documentation).
func ClusterValidated(ctx context.Context, ds *Dataset, opts Options, objectTolerance float64) (*Result, *KnowledgeReport, error) {
	return core.RunValidatedContext(ctx, ds, opts, objectTolerance)
}

// FuzzyKnowledge carries confidence-weighted inputs (§6 extension:
// "fuzzy inputs"); convert with Harden or TopConfident before clustering.
type FuzzyKnowledge = dataset.FuzzyKnowledge

// NewFuzzyKnowledge returns an empty fuzzy knowledge set.
func NewFuzzyKnowledge() *FuzzyKnowledge { return dataset.NewFuzzyKnowledge() }

// SeedKMeansOptions configures Seeded-/Constrained-KMeans.
type SeedKMeansOptions = seedkmeans.Options

// SeedKMeansDefaults returns the seeded variant for k clusters.
func SeedKMeansDefaults(k int) SeedKMeansOptions { return seedkmeans.DefaultOptions(k) }

// SeedKMeans runs Seeded-KMeans (or Constrained-KMeans when
// Options.Constrained is set) — Basu et al., ICML 2002.
func SeedKMeans(ctx context.Context, ds *Dataset, kn *Knowledge, opts SeedKMeansOptions) (*Result, error) {
	return seedkmeans.RunContext(ctx, ds, kn, opts)
}

// Supervision merges every supervision form the paper's §2 survey
// compares — labeled objects/dimensions, must/cannot-link pairs, and seed
// sets — and converts between them (AsKnowledge, AsConstraints,
// AsSeedSets) so any algorithm can consume any form.
type Supervision = core.Supervision

// ParseConstraints reads a must/cannot pair file ("must <i> <j>" /
// "cannot <i> <j>", # comments).
func ParseConstraints(r io.Reader) (must, cannot [][2]int, err error) {
	return core.ParseConstraints(r)
}

// ParseSeedSets reads a seed-set file ("<class> <obj> [<obj> ...]",
// # comments).
func ParseSeedSets(r io.Reader) (map[int][]int, error) {
	return core.ParseSeedSets(r)
}

// Trace observes SSPC's initialization and iterations via Options.Trace.
type Trace = core.Trace

// IterationStats is the per-iteration report delivered to Trace.
type IterationStats = core.IterationStats

// SeedGroupInfo summarizes one seed group after initialization.
type SeedGroupInfo = core.SeedGroupInfo

// Normalization helpers for real datasets.
var (
	// ZScoreNormalize standardizes every column to zero mean, unit variance.
	ZScoreNormalize = dataset.ZScoreNormalize
	// MinMaxNormalize rescales every column to [0,1].
	MinMaxNormalize = dataset.MinMaxNormalize
	// RobustNormalize centers at the median and scales by 1.4826·MAD.
	RobustNormalize = dataset.RobustNormalize
)
