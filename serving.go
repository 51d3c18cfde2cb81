package sspc

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/model"
)

// This file exposes the serving layer: persist a fitted clustering as a
// versioned model artifact and answer Step-3 assignment queries from it —
// in process through an Assigner, from disk through SaveModel/LoadModel,
// or over HTTP through cmd/sspcd. The contract throughout is byte
// identity: a decoded model assigns exactly what the fit that produced it
// assigned (see ARCHITECTURE.md, "The serving layer").

// FittedCluster is one cluster's Step-3 assignment rule captured at fit
// time: selected dimensions, the representative's projection onto them,
// and the ŝ² thresholds. Algorithms that can be served (SSPC, PROCLUS,
// DOC) attach one per cluster as Result.Fitted; a Model holds the same
// values as Model.Clusters, and an Assigner scores with them.
type FittedCluster = cluster.FittedCluster

// Assigner answers Step-3 assignment queries from a fitted snapshot,
// allocation-free in steady state and safe for concurrent callers.
type Assigner = core.Assigner

// Model is a self-describing, versioned encoding of one fitted result:
// provenance (algorithm, options, seed, dataset hash), the training
// assignments, and the per-cluster assignment rules.
type Model = model.Model

// NewAssigner builds an Assigner for a d-dimensional space from fitted
// per-cluster snapshots (typically Result.Fitted).
func NewAssigner(d int, fitted []FittedCluster) (*Assigner, error) {
	return core.NewAssigner(d, fitted)
}

// ModelFromResult freezes a fitted result into a Model. It errors when the
// result carries no fitted snapshot (HARP and CLARANS do not emit one).
// The options string is free-form provenance; it participates in the
// model's registry key.
func ModelFromResult(algo, options string, seed int64, datasetHash string, d int, res *Result) (*Model, error) {
	return model.FromResult(algo, options, seed, datasetHash, d, res)
}

// SaveModel encodes the model and writes it to path.
func SaveModel(m *Model, path string) error { return m.Save(path) }

// LoadModel reads and strictly decodes a model file written by SaveModel.
func LoadModel(path string) (*Model, error) { return model.Load(path) }

// DecodeModel strictly decodes an encoded model (wire format documented in
// internal/model): unknown versions, shape mismatches, checksum failures,
// and non-finite thresholds are all rejected.
func DecodeModel(data []byte) (*Model, error) { return model.Decode(data) }

// DatasetHash fingerprints a dataset's exact contents (shape plus the
// bit pattern of every value) for model provenance and registry keying.
func DatasetHash(ds *Dataset) string { return model.DatasetHash(ds) }

// ModelKey derives the registry key a model with this provenance would
// have, without building the model.
func ModelKey(datasetHash, algo, options string, seed int64) string {
	return model.Key(datasetHash, algo, options, seed)
}
