// Package model persists fitted clustering results in a versioned,
// self-describing container so the expensive fit and the perpetual scoring
// can live in different processes: cmd/sspc -save writes a model, cmd/sspcd
// (or cmd/sspc -load) decodes it and serves Step-3 assignment from the
// per-cluster (dims, rep, ŝ²) triples without refitting.
//
// The wire format is a fixed 24-byte header followed by a JSON body:
//
//	offset size  field
//	0      8     magic "SSPCMODL"
//	8      4     format version, big-endian uint32 (currently 1)
//	12     8     body length in bytes, big-endian uint64
//	20     4     IEEE CRC-32 of the body, big-endian uint32
//	24     …     JSON body (a Model)
//
// The body's "clusters" array holds cluster.FittedCluster values — the same
// type the fit snapshots and the serving Assigner scores with — under the
// names its struct tags give: "dims", "rep" and "shat".
//
// The header makes decoding strict before the first byte of JSON is parsed:
// wrong magic, unknown version, truncated body, and corrupted body are four
// distinct errors. The body is JSON rather than raw binary because Go's
// encoder writes float64s in shortest round-trip form — decode returns the
// exact bits that were encoded — while keeping models diffable and greppable;
// JSON cannot represent NaN or ±Inf at all, and Model.Validate rejects them
// anyway as defense in depth. Unknown body fields are rejected
// (DisallowUnknownFields), so version 1 readers cannot silently drop data a
// newer writer considered meaningful.
//
// DecodeAssign parses the body of cmd/sspcd's POST /assign, the request
// that scores rows against a served model.
package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faults"
)

// Version is the current container format version.
const Version = 1

// magic identifies a model file; it never changes across versions.
const magic = "SSPCMODL"

// headerSize is the fixed byte length of the container header.
const headerSize = len(magic) + 4 + 8 + 4

// Model is the decoded body of a persisted fit: everything a server needs to
// identify the model (algorithm, canonical option string, seed, dataset
// hash), reproduce the training partition (assignments), and score new
// points (per-cluster triples).
type Model struct {
	// Algo names the fitting algorithm: "sspc", "proclus" or "doc".
	Algo string `json:"algo"`
	// Options is the canonical options string of the fit, as Fit.Options
	// builds it for cmd/sspc and cmd/sspcd. Opaque to the decoder; it only
	// participates in identity (Key).
	Options string `json:"options"`
	// Seed is the RNG seed the fit ran with.
	Seed int64 `json:"seed"`
	// K, D and N give the cluster count, the dimensionality and the number
	// of training objects.
	K int `json:"k"`
	D int `json:"d"`
	N int `json:"n"`
	// DatasetHash is the hex SHA-256 of the training dataset (DatasetHash
	// function), taken after any normalization the fit applied.
	DatasetHash string `json:"dataset_hash"`
	// Score, ScoreHigherIsBetter and Iterations echo the fit's result.
	Score               float64 `json:"score"`
	ScoreHigherIsBetter bool    `json:"score_higher_is_better"`
	Iterations          int     `json:"iterations"`
	// Assignments is the training partition: one entry per object, a cluster
	// index in [0, K) or cluster.Outlier.
	Assignments []int `json:"assignments"`
	// Clusters holds the per-cluster scoring triples, index-aligned with the
	// assignment values.
	Clusters []cluster.FittedCluster `json:"clusters"`
}

// FromResult captures a fitted result as a persistable model. The result
// must carry a Fitted snapshot (algorithms without a servable shape leave it
// nil and cannot be persisted). datasetHash should come from DatasetHash on
// the exact dataset the fit saw.
func FromResult(algo, options string, seed int64, datasetHash string, d int, res *cluster.Result) (*Model, error) {
	if res == nil {
		return nil, fmt.Errorf("model: nil result")
	}
	if res.Fitted == nil {
		return nil, fmt.Errorf("model: %s result carries no fitted snapshot; the algorithm does not emit a servable model", algo)
	}
	m := &Model{
		Algo:                algo,
		Options:             options,
		Seed:                seed,
		K:                   res.K,
		D:                   d,
		N:                   len(res.Assignments),
		DatasetHash:         datasetHash,
		Score:               res.Score,
		ScoreHigherIsBetter: res.ScoreHigherIsBetter,
		Iterations:          res.Iterations,
		Assignments:         append([]int(nil), res.Assignments...),
		Clusters:            make([]cluster.FittedCluster, len(res.Fitted)),
	}
	for i := range res.Fitted {
		m.Clusters[i].CopyFrom(&res.Fitted[i])
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks every structural invariant a decoded model must satisfy
// before it is served: positive shape, K-aligned clusters, in-range
// assignments, and per-cluster triples that pass
// cluster.FittedCluster.Validate (parallel lengths, strictly ascending dims
// in [0, D), finite representatives, finite strictly positive thresholds —
// which rejects any NaN that slipped into the body).
func (m *Model) Validate() error {
	if m.Algo == "" {
		return fmt.Errorf("model: empty algorithm name")
	}
	if m.K <= 0 || m.D <= 0 || m.N < 0 {
		return fmt.Errorf("model: shape K=%d D=%d N=%d", m.K, m.D, m.N)
	}
	if len(m.Assignments) != m.N {
		return fmt.Errorf("model: %d assignments for N=%d", len(m.Assignments), m.N)
	}
	for i, a := range m.Assignments {
		if a != cluster.Outlier && (a < 0 || a >= m.K) {
			return fmt.Errorf("model: object %d assigned to %d (K=%d)", i, a, m.K)
		}
	}
	if len(m.Clusters) != m.K {
		return fmt.Errorf("model: %d clusters for K=%d", len(m.Clusters), m.K)
	}
	if math.IsNaN(m.Score) {
		return fmt.Errorf("model: score is NaN")
	}
	for i := range m.Clusters {
		if err := m.Clusters[i].Validate(m.D); err != nil {
			return fmt.Errorf("model: cluster %d: %w", i, err)
		}
	}
	return nil
}

// Assigner builds the allocation-free serving assigner for this model. The
// assigner deep-copies the triples, so the model may be released afterwards.
func (m *Model) Assigner() (*core.Assigner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return core.NewAssigner(m.D, m.Clusters)
}

// Key is the registry identity of a model: the hex SHA-256 over (dataset
// hash, algorithm, canonical options, seed). Two fits with equal keys are
// the same deterministic computation and interchangeable in a registry.
func (m *Model) Key() string {
	return Key(m.DatasetHash, m.Algo, m.Options, m.Seed)
}

// Key computes the registry identity for a (dataset hash, algo, options,
// seed) tuple without building a model first — the lookup side of the
// registry cache.
func Key(datasetHash, algo, options string, seed int64) string {
	h := sha256.New()
	for _, part := range []string{datasetHash, algo, options} {
		var lenBuf [8]byte
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(part)))
		h.Write(lenBuf[:])
		h.Write([]byte(part))
	}
	var seedBuf [8]byte
	binary.BigEndian.PutUint64(seedBuf[:], uint64(seed))
	h.Write(seedBuf[:])
	return fmt.Sprintf("%x", h.Sum(nil))
}

// DatasetHash fingerprints a dataset: the hex SHA-256 over its shape and the
// IEEE-754 bits of every value in row-major order. Byte-identical data —
// on the heap or mapped from a file — hashes identically; any value, shape
// or order change produces a different hash.
func DatasetHash(ds *dataset.Dataset) string {
	h := sha256.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(ds.N()))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(ds.D()))
	h.Write(buf[:])
	for x := 0; x < ds.N(); x++ {
		for _, v := range ds.Row(x) {
			binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Encode serializes the model into the versioned container. The model is
// validated first, so every encoded blob decodes cleanly.
func (m *Model) Encode() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	body, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("model: encode body: %w", err)
	}
	out := make([]byte, headerSize+len(body))
	copy(out, magic)
	binary.BigEndian.PutUint32(out[8:12], Version)
	binary.BigEndian.PutUint64(out[12:20], uint64(len(body)))
	binary.BigEndian.PutUint32(out[20:24], crc32.ChecksumIEEE(body))
	copy(out[headerSize:], body)
	return out, nil
}

// Decode parses and validates an encoded model, rejecting — each with its
// own error — short or wrong-magic headers, unknown versions, truncated or
// over-long bodies, CRC mismatches, bodies with unknown fields, and bodies
// whose content fails Validate.
func Decode(data []byte) (*Model, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("model: %d bytes is shorter than the %d-byte header", len(data), headerSize)
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("model: bad magic %q", data[:8])
	}
	if v := binary.BigEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("model: unknown format version %d (this reader understands %d)", v, Version)
	}
	bodyLen := binary.BigEndian.Uint64(data[12:20])
	if got := uint64(len(data) - headerSize); got != bodyLen {
		return nil, fmt.Errorf("model: header declares %d body bytes, %d present", bodyLen, got)
	}
	body := data[headerSize:]
	if sum := crc32.ChecksumIEEE(body); sum != binary.BigEndian.Uint32(data[20:24]) {
		return nil, fmt.Errorf("model: body CRC mismatch (corrupted model)")
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	m := &Model{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("model: decode body: %w", err)
	}
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("model: trailing data after body")
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Save encodes the model and writes it to path (0644).
func (m *Model) Save(path string) error {
	if err := faults.Check(faults.SiteModelIO); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	data, err := m.Encode()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("model: save: %w", err)
	}
	return nil
}

// Load reads and decodes a model file.
func Load(path string) (*Model, error) {
	if err := faults.Check(faults.SiteModelIO); err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: load: %w", err)
	}
	return Decode(data)
}
