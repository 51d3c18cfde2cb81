// Package sspc is a Go implementation of SSPC — Semi-Supervised Projected
// Clustering (Yip, Cheung, Ng — ICDE 2005) — together with the baseline
// algorithms its evaluation compares against (PROCLUS, HARP, CLARANS, DOC /
// FastDOC), a synthetic data generator following the paper's data model,
// and the evaluation metrics it reports.
//
// SSPC discovers projected clusters whose relevant dimensions can be as few
// as 1–5% of the total dimensionality, optionally guided by two kinds of
// domain knowledge: labeled objects ("these samples belong to class X") and
// labeled dimensions ("this gene is relevant to class X").
//
// Quick start:
//
//	gt, _ := sspc.Generate(sspc.SynthConfig{N: 500, D: 100, K: 4, AvgDims: 8})
//	res, _ := sspc.Cluster(context.Background(), gt.Data, sspc.DefaultOptions(4))
//	ari, _ := sspc.ARI(gt.Labels, res.Assignments)
//
// # Parallelism and determinism
//
// Every randomized algorithm here (SSPC, PROCLUS, CLARANS, DOC, and HARP's
// randomized scan orders) runs its independent restarts through one shared
// restart scheduler, which consumes them in restart order and decides how
// the worker budget is split. Each Options struct exposes two knobs:
//
//   - Restarts: the number of independent randomized runs; the best result
//     by the algorithm's own objective is returned. For CLARANS it overrides
//     the paper's NumLocal, which is the same knob under another name.
//   - Workers: the maximum number of restarts executed concurrently; <= 0
//     means runtime.GOMAXPROCS(0).
//
// Every algorithm but HARP also parallelizes inside each restart, and the
// restart-based searches can stream their restarts adaptively:
//
//   - Workers beyond the restart count are spent on each algorithm's hot
//     point loops: the scheduler hands each of the min(Workers, Restarts)
//     concurrent restarts ceil(Workers / min(Workers, Restarts))
//     goroutines for SSPC's O(n·K·|V|) assignment and dimension
//     re-selection, PROCLUS's assignment / dimension-refinement / outlier
//     passes, DOC's box-membership scans, CLARANS's final assignment —
//     chunked into ranges the engine sizes from the worker count (every
//     chunk layout gives identical output).
//   - Options.EarlyStop > 0 (SSPC, PROCLUS, DOC) launches restarts lazily
//     and stops once the best objective has not improved for that many
//     consecutive restarts, with Restarts as the hard cap. EarlyStop = 0
//     (the default) runs the fixed best-of-Restarts protocol.
//
// Results are a pure function of (dataset, options): restart r derives its
// RNG from a splitmix-style child of Options.Seed, results — and the
// early-stop decision — are reduced in restart order, and ties keep the
// lowest restart — so Workers = 1 and Workers = N produce byte-identical
// Results, and a single-restart run reproduces the historical serial output
// for the same Seed. The cross-algorithm conformance suite
// (conformance_test.go) pins worker invariance (which also moves the chunk
// boundaries) and restart-0 ≡ base-seed for all nine algorithms (CLIQUE draws
// no random numbers, so it has no seed and runs once). Datasets are
// safe for any number of concurrent readers; concurrent Cluster calls may
// share one *Dataset.
//
//	opts := sspc.DefaultOptions(4)
//	opts.Restarts = 8 // 8 restarts, all CPUs, same answer as Workers=1
//	opts.EarlyStop = 3 // stop early once φ plateaus for 3 restarts
//	res, _ := sspc.Cluster(context.Background(), gt.Data, opts)
//
// # Datasets and storage
//
// Every Dataset is one row-major slice. Datasets load from CSV (ReadCSV,
// ReadLabeledCSV — contract in docs/DATASETS.md) or are generated
// (Generate); either way the slice lives on the heap. For datasets near or
// past the memory ceiling there is a second storage tier: the .sspcb binary
// format (WriteBinaryDataset, ConvertCSVToBinary) stores the matrix on disk
// with checksums and per-shard stat partials, and OpenBinaryDataset maps it
// read-only so the dataset's slice aliases the file's pages — the
// algorithms run unmodified with peak heap near the gathered working set,
// and the disk-tier conformance leg pins the results byte-identical to the
// heap at every shard size. See docs/DATASETS.md, "The binary dataset
// format".
//
// Hot loops never read the matrix element-wise: Dataset.GatherRows and
// Dataset.GatherColumn bulk-copy a subset of rows (or one dimension of
// them) into caller scratch, one copy per run of consecutive rows, and SSPC's
// dimension-selection pass runs on a columnar gather kernel built on them —
// allocation-free in steady state and bit-identical to the element-wise
// scan (see ARCHITECTURE.md, "The columnar evaluation kernel"). cmd/bench
// records the measured effect of changes to these paths in committed
// BENCH_<n>.json baselines.
//
// # Cancellation
//
// Every fit takes a context.Context as its first argument (Cluster(ctx, …),
// PROCLUS(ctx, …), …; pass context.Background() when nothing cancels) and
// shares one contract: cancellation is observed at restart launches,
// iteration boundaries, and chunk boundaries of the hot scans, so a canceled
// fit returns the context's cause error — never a partial result — within a
// bounded amount of work, and leaks no goroutines. The checks observe only
// the context, never the data, so a fit that runs to completion gives the
// same answer whatever context it ran under. An injected fault in a chunk
// loop comes back the same way, as a plain error. See ARCHITECTURE.md, "The
// cancellation contract", and docs/OPERATIONS.md for the serving-side
// deadline and cancellation knobs.
//
// # Serving fitted models
//
// A fitted result from SSPC, PROCLUS, or DOC carries its per-cluster
// assignment rule (Result.Fitted); ModelFromResult freezes it, with its
// provenance, into a versioned Model that Save/Load round-trip bit-exactly,
// and NewAssigner (or Model.Assigner) answers Step-3 assignment queries
// from it — allocation-free, concurrency-safe, and byte-identical to the
// fit that produced it. cmd/sspcd serves the same path over HTTP. See
// serving.go and ARCHITECTURE.md, "The serving layer".
//
// The subpackages under internal/ hold the implementations; this package is
// the stable public surface.
package sspc

import (
	"context"
	"io"

	"repro/internal/clarans"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/doc"
	"repro/internal/eval"
	"repro/internal/harp"
	"repro/internal/proclus"
	"repro/internal/synth"
)

// Dataset is a dense n×d matrix of objects (rows) by dimensions (columns).
type Dataset = dataset.Dataset

// Knowledge carries labeled objects and labeled dimensions (the paper's Io
// and Iv sets).
type Knowledge = dataset.Knowledge

// Result is a clustering: assignments (−1 = outlier), per-cluster selected
// dimensions, and the algorithm's objective score.
type Result = cluster.Result

// Outlier is the assignment value of objects on the outlier list.
const Outlier = cluster.Outlier

// NewDataset returns an n×d dataset of zeros.
func NewDataset(n, d int) (*Dataset, error) { return dataset.New(n, d) }

// FromRows builds a dataset from rows, copying the data.
func FromRows(rows [][]float64) (*Dataset, error) { return dataset.FromRows(rows) }

// ReadCSV parses numeric CSV data into a flat dataset. When header is true
// the first record is skipped; every field must parse as a finite float64.
func ReadCSV(r io.Reader, header bool) (*Dataset, error) { return dataset.ReadCSV(r, header) }

// ReadLabeledCSV parses CSV whose last column is an integer class label
// (−1 for outliers), returning the feature dataset and the label column.
func ReadLabeledCSV(r io.Reader, header bool) (*Dataset, []int, error) {
	return dataset.ReadLabeledCSV(r, header)
}

// WriteCSV writes the dataset as CSV; a non-nil labels slice (one entry per
// row) is appended as a final integer column.
func WriteCSV(w io.Writer, ds *Dataset, labels []int) error {
	return dataset.WriteCSV(w, ds, labels)
}

// BinaryDatasetFile is an opened .sspcb binary dataset: a versioned,
// checksummed on-disk matrix whose payload the dataset aliases in the mapped
// file pages (mmap, read-only), so algorithms cluster datasets larger than
// RAM through the ordinary accessor seam. Obtain with OpenBinaryDataset; Close releases
// the mapping. See docs/DATASETS.md for the format.
type BinaryDatasetFile = binfmt.File

// BinaryDatasetInfo summarizes a written or opened binary dataset file.
type BinaryDatasetInfo = binfmt.Info

// ConvertCSVOptions configures ConvertCSVToBinary: the output shard
// granularity, whether the first segment opens with a header record, and an
// optional progress callback.
type ConvertCSVOptions = binfmt.ConvertOptions

// Typed binary-dataset errors, re-exported for errors.Is matching without
// importing the internal package. OpenBinaryDataset never returns a dataset
// built from bytes that fail verification — corrupted, truncated, or
// version-skewed files yield exactly these errors.
var (
	ErrBinaryBadMagic  = binfmt.ErrBadMagic
	ErrBinaryVersion   = binfmt.ErrVersion
	ErrBinaryTruncated = binfmt.ErrTruncated
	ErrBinaryChecksum  = binfmt.ErrChecksum
	ErrBinaryFormat    = binfmt.ErrFormat
)

// OpenBinaryDataset opens, maps, and fully verifies a binary dataset file
// (checksums, extents, stat partials, finiteness). The returned file's
// Dataset() is read-only and valid until Close.
func OpenBinaryDataset(path string) (*BinaryDatasetFile, error) { return binfmt.OpenBinary(path) }

// WriteBinaryDataset writes ds to path in the binary dataset format at the
// given shard granularity, atomically. The bytes depend only on the values
// and shardRows, never on where ds's storage lives.
func WriteBinaryDataset(path string, ds *Dataset, shardRows int) (BinaryDatasetInfo, error) {
	return binfmt.WriteBinaryFile(path, ds, shardRows)
}

// ConvertCSVToBinary streams pre-split CSV segments (one logical CSV, in
// order) into a binary dataset file, parsing segments concurrently and
// re-chunking rows into shards independently of the segment boundaries; the
// output is byte-identical to WriteBinaryDataset over the same matrix.
func ConvertCSVToBinary(out string, segments []string, opts ConvertCSVOptions) (BinaryDatasetInfo, error) {
	return binfmt.ConvertCSV(out, segments, opts)
}

// NewKnowledge returns an empty knowledge set; add labels with LabelObject
// and LabelDim.
func NewKnowledge() *Knowledge { return dataset.NewKnowledge() }

// Options configures SSPC; see DefaultOptions.
type Options = core.Options

// Threshold schemes for SSPC's dimension selection (paper §4.1).
const (
	SchemeM = core.SchemeM
	SchemeP = core.SchemeP
)

// DefaultOptions returns SSPC's default configuration (threshold scheme m,
// m = 0.5) for k clusters.
func DefaultOptions(k int) Options { return core.DefaultOptions(k) }

// Cluster runs SSPC on the dataset under ctx; see "Cancellation" in the
// package documentation for the shared contract.
func Cluster(ctx context.Context, ds *Dataset, opts Options) (*Result, error) {
	return core.RunContext(ctx, ds, opts)
}

// PROCLUSOptions configures the PROCLUS baseline; see PROCLUSDefaults.
type PROCLUSOptions = proclus.Options

// PROCLUSDefaults returns the PROCLUS defaults for k clusters with average
// cluster dimensionality l.
func PROCLUSDefaults(k, l int) PROCLUSOptions { return proclus.DefaultOptions(k, l) }

// PROCLUS runs the PROCLUS baseline (Aggarwal et al., SIGMOD 1999) under
// ctx.
func PROCLUS(ctx context.Context, ds *Dataset, opts PROCLUSOptions) (*Result, error) {
	return proclus.RunContext(ctx, ds, opts)
}

// HARPOptions configures the HARP baseline; see HARPDefaults.
type HARPOptions = harp.Options

// HARPDefaults returns the HARP defaults for k clusters.
func HARPDefaults(k int) HARPOptions { return harp.DefaultOptions(k) }

// HARP runs the HARP baseline (Yip et al., TKDE 2004) under ctx.
func HARP(ctx context.Context, ds *Dataset, opts HARPOptions) (*Result, error) {
	return harp.RunContext(ctx, ds, opts)
}

// CLARANSOptions configures the CLARANS reference; see CLARANSDefaults.
type CLARANSOptions = clarans.Options

// CLARANSDefaults returns the CLARANS defaults for k clusters.
func CLARANSDefaults(k int) CLARANSOptions { return clarans.DefaultOptions(k) }

// CLARANS runs the non-projected CLARANS reference (Ng & Han, VLDB 1994)
// under ctx.
func CLARANS(ctx context.Context, ds *Dataset, opts CLARANSOptions) (*Result, error) {
	return clarans.RunContext(ctx, ds, opts)
}

// DOCOptions configures the DOC / FastDOC baseline; see DOCDefaults.
type DOCOptions = doc.Options

// DOCDefaults returns DOC defaults for k clusters and box half-width w.
func DOCDefaults(k int, w float64) DOCOptions { return doc.DefaultOptions(k, w) }

// DOC runs the Monte-Carlo DOC baseline (Procopiuc et al., SIGMOD 2002)
// under ctx. Set Options.Fast for the FastDOC heuristic.
func DOC(ctx context.Context, ds *Dataset, opts DOCOptions) (*Result, error) {
	return doc.RunContext(ctx, ds, opts)
}

// ARI computes the Adjusted Rand Index in the exact form of the paper's
// Equation 5. Outliers (−1) on either side are treated as singletons.
func ARI(truth, pred []int) (float64, error) { return eval.ARI(truth, pred) }

// ARIHubertArabie computes the standard Hubert–Arabie adjusted Rand index.
func ARIHubertArabie(truth, pred []int) (float64, error) {
	return eval.ARIHubertArabie(truth, pred)
}

// NMI computes normalized mutual information between two partitions.
func NMI(truth, pred []int) (float64, error) { return eval.NMI(truth, pred) }

// Purity computes weighted majority-class purity of a predicted partition.
func Purity(truth, pred []int) (float64, error) { return eval.Purity(truth, pred) }

// FilterObjects returns copies of truth and pred with the given objects
// removed — used to exclude labeled objects from accuracy computations as
// the paper's protocol requires.
func FilterObjects(truth, pred []int, drop map[int]bool) ([]int, []int) {
	return eval.Filter(truth, pred, drop)
}

// DimQuality holds precision/recall/F1 of selected dimensions.
type DimQuality = eval.DimQuality

// DimSelectionQuality scores each cluster's selected dimensions against the
// matched class's true relevant dimensions.
func DimSelectionQuality(truth, pred []int, predDims, trueDims [][]int) DimQuality {
	return eval.DimSelectionQuality(truth, pred, predDims, trueDims)
}

// SynthConfig parameterizes the synthetic generator implementing the
// paper's data model (narrow local Gaussians on relevant dimensions, wide
// uniform global distribution elsewhere).
type SynthConfig = synth.Config

// GroundTruth is a generated dataset with its true labels, per-class
// relevant dimensions and local Gaussian parameters.
type GroundTruth = synth.GroundTruth

// Generate builds a synthetic dataset.
func Generate(cfg SynthConfig) (*GroundTruth, error) { return synth.Generate(cfg) }

// MultiGroup is a dataset with two independent valid groupings (§5.4).
type MultiGroup = synth.MultiGroup

// GenerateMultiGroup concatenates two independent clusterings of the same
// objects into a dataset with two possible groupings.
func GenerateMultiGroup(cfg1, cfg2 SynthConfig) (*MultiGroup, error) {
	return synth.GenerateMultiGroup(cfg1, cfg2)
}

// KnowledgeConfig controls how much supervision SampleKnowledge draws.
type KnowledgeConfig = synth.KnowledgeConfig

// Knowledge kinds for KnowledgeConfig.
const (
	NoKnowledge    = synth.NoKnowledge
	ObjectsOnly    = synth.ObjectsOnly
	DimsOnly       = synth.DimsOnly
	ObjectsAndDims = synth.ObjectsAndDims
)

// SampleKnowledge draws labeled objects / dimensions from a ground truth.
func SampleKnowledge(gt *GroundTruth, cfg KnowledgeConfig) (*Knowledge, error) {
	return synth.SampleKnowledge(gt, cfg)
}
