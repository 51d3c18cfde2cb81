// Package binfmt defines the on-disk binary dataset format (.sspcb) and its
// two ends: a streaming writer (WriteBinary, ConvertCSV) and an mmap-backed
// reader (OpenBinary) whose dataset aliases the file's payload directly, so
// the algorithms cluster datasets larger than RAM through the ordinary
// dataset accessor seam (At/Row/GatherRows/GatherColumn) with peak heap
// ≈ the gathered working set.
//
// # Layout (version 1, all integers and float bits little-endian)
//
//	offset                  size  field
//	0                       8     magic "SSPCBIN\x00"
//	8                       4     format version (currently 1)
//	12                      4     flags (reserved, must be 0)
//	16                      8     n     — rows
//	24                      8     d     — columns
//	32                      8     shardRows — rows per shard (last may be shorter)
//	40                      8     numShards — must equal ceil(n/shardRows)
//	48                      8     payloadOff — file offset of the payload
//	56                      8     payloadCRC — CRC-64/ECMA of the payload bytes
//	64                      32·S  extent table: per shard {rowLo, rowHi, off, bytes}
//	64+32·S                 32·d·S stat table: per shard d mins, d maxs,
//	                              d means, d variances (row-order Welford)
//	payloadOff−8            8     headerCRC — CRC-64/ECMA of bytes [0, payloadOff−8)
//	payloadOff              8·n·d payload: shard blocks back to back, row-major
//	                              within each shard — so the whole payload is
//	                              the n×d matrix row-major, exactly the
//	                              dataset's in-memory layout, and the mmap
//	                              aliases it zero-copy as one slice
//
// The extent table is fully derivable from (n, d, shardRows); it is stored
// anyway so a reader can locate one shard without trusting arithmetic, and
// OpenBinary cross-checks every entry against the derived values. The stat
// table holds per-shard column partials: min, max, and the shard's own
// row-order Welford mean and variance. Every partial is verified against the
// payload at open (a bit-exact replay), which is what catches a payload edit
// whose checksums were recomputed; the dataset layer never merges them, and
// computes its column statistics over rows in index order (see
// dataset.Dataset's statistics contract). A shard is therefore a unit of the
// file only — extents, stat partials, the converter's re-chunking — and no
// shard size changes what an opened dataset holds or how it is scanned.
//
// The payload is row-major rather than column-major on purpose: the
// accessor seam hands out contiguous Row slices and the mmap must alias the
// file without copying, so the file keeps the exact byte layout of the
// in-memory matrix. The columnar aspects of the format live in the
// per-shard column-stat partials and in GatherColumn's strided scans.
//
// # Integrity
//
// Two CRC-64/ECMA checksums make corruption detection cheap and layered:
// headerCRC covers the fixed header plus both tables (so a reader validates
// shape, extents and partials before touching the payload), and payloadCRC
// covers the data. OpenBinary verifies both, plus structural consistency
// (sizes, extents, alignment, finiteness, stat partials), and returns typed
// errors — ErrBadMagic, ErrVersion (via *VersionError), ErrTruncated,
// ErrChecksum, ErrFormat — never a dataset built from garbage bytes.
//
// payloadCRC also serves as the dataset fingerprint for model registries
// (File.ContentHash): the payload is the rows in row order regardless of
// shard boundaries, so re-sharding the same data keeps the same hash, and no
// full scan beyond the one open-time verification pass is ever needed.
package binfmt

import (
	"errors"
	"fmt"
	"hash/crc64"
	"math"
)

// Magic identifies a binary dataset file; it never changes across versions.
const Magic = "SSPCBIN\x00"

// Version is the current format version.
const Version = 1

const (
	fixedHeaderSize = 64
	extentSize      = 32
	crcSize         = 8
)

// maxDim bounds n and d against nonsense headers: 2^40 rows (or columns)
// is far beyond any file this reader could map, and the bound keeps every
// downstream size computation inside int64.
const maxDim = 1 << 40

// crcTable is the CRC-64/ECMA table both checksums use.
var crcTable = crc64.MakeTable(crc64.ECMA)

// Typed error values. OpenBinary wraps each with file-specific detail;
// match with errors.Is.
var (
	// ErrBadMagic reports a file that is not a binary dataset at all.
	ErrBadMagic = errors.New("binfmt: bad magic (not a .sspcb binary dataset)")
	// ErrVersion reports a format version this reader does not understand;
	// the concrete error is a *VersionError.
	ErrVersion = errors.New("binfmt: unsupported format version")
	// ErrTruncated reports a file shorter than its header declares.
	ErrTruncated = errors.New("binfmt: truncated file")
	// ErrChecksum reports CRC or stat-partial mismatches: the bytes changed
	// since WriteBinary produced them.
	ErrChecksum = errors.New("binfmt: checksum mismatch (corrupted file)")
	// ErrFormat reports a structurally inconsistent file: impossible shape,
	// extents that contradict the header, trailing bytes, non-finite values.
	ErrFormat = errors.New("binfmt: malformed file")
)

// VersionError is the concrete error for a version the reader cannot decode.
// errors.Is(err, ErrVersion) matches it.
type VersionError struct {
	Got  uint32
	Want uint32
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("binfmt: unsupported format version %d (this reader understands %d)", e.Got, e.Want)
}

// Is reports that a VersionError matches the ErrVersion sentinel.
func (e *VersionError) Is(target error) bool { return target == ErrVersion }

// Info summarizes a written or opened binary dataset file.
type Info struct {
	// N and D are the matrix shape.
	N, D int
	// ShardRows is the sharding granularity (last shard may be shorter).
	ShardRows int
	// NumShards is the shard count, ceil(N/ShardRows).
	NumShards int
	// PayloadChecksum is the CRC-64/ECMA of the payload bytes — the
	// shard-layout-invariant content fingerprint.
	PayloadChecksum uint64
}

// numShardsFor returns ceil(n/shardRows).
func numShardsFor(n, shardRows int) int { return (n + shardRows - 1) / shardRows }

// shardAccum accumulates one shard's column-stat partials in row order. The
// Welford recurrence is byte-for-byte the one dataset.ensureStats runs, so a
// verifier that replays the shard's rows reproduces the writer's mean and
// variance bits exactly — floating-point equality, not tolerance.
type shardAccum struct {
	d    int
	rows int
	mn   []float64
	mx   []float64
	mean []float64
	m2   []float64
}

func newShardAccum(d int) *shardAccum {
	a := &shardAccum{
		d:    d,
		mn:   make([]float64, d),
		mx:   make([]float64, d),
		mean: make([]float64, d),
		m2:   make([]float64, d),
	}
	a.reset()
	return a
}

func (a *shardAccum) reset() {
	a.rows = 0
	for j := 0; j < a.d; j++ {
		a.mn[j] = math.Inf(1)
		a.mx[j] = math.Inf(-1)
		a.mean[j] = 0
		a.m2[j] = 0
	}
}

// addRow folds one row into the partials. The row must have length d.
func (a *shardAccum) addRow(row []float64) {
	a.rows++
	cnt := float64(a.rows)
	for j, v := range row {
		delta := v - a.mean[j]
		a.mean[j] += delta / cnt
		a.m2[j] += delta * (v - a.mean[j])
		if v < a.mn[j] {
			a.mn[j] = v
		}
		if v > a.mx[j] {
			a.mx[j] = v
		}
	}
}

// stats is one shard's finished column-stat record as stored in the table.
type stats struct {
	mn, mx, mean, vr []float64
}

// finish snapshots the accumulated partials into a stats record (copying, so
// the accumulator can be reset and reused for the next shard).
func (a *shardAccum) finish() stats {
	s := stats{
		mn:   append([]float64(nil), a.mn...),
		mx:   append([]float64(nil), a.mx...),
		mean: append([]float64(nil), a.mean...),
		vr:   make([]float64, a.d),
	}
	if a.rows > 1 {
		inv := float64(a.rows - 1)
		for j := 0; j < a.d; j++ {
			s.vr[j] = a.m2[j] / inv
		}
	}
	return s
}

// layoutSizes returns the derived byte layout of a file with the given
// shape: the payload offset and the total file size. It errors on shapes
// whose sizes do not fit the platform or the format.
func layoutSizes(n, d, shardRows int) (payloadOff, fileSize int64, err error) {
	if n <= 0 || d <= 0 {
		return 0, 0, fmt.Errorf("%w: shape %dx%d", ErrFormat, n, d)
	}
	if shardRows <= 0 {
		return 0, 0, fmt.Errorf("%w: shardRows = %d", ErrFormat, shardRows)
	}
	if int64(n) > maxDim || int64(d) > maxDim {
		return 0, 0, fmt.Errorf("%w: shape %dx%d exceeds the format bound", ErrFormat, n, d)
	}
	numShards := int64(numShardsFor(n, shardRows))
	cells := int64(n) * int64(d)
	if cells > maxDim {
		return 0, 0, fmt.Errorf("%w: %d cells exceed the format bound", ErrFormat, cells)
	}
	tableBytes := numShards*extentSize + numShards*int64(d)*4*8
	payloadOff = fixedHeaderSize + tableBytes + crcSize
	fileSize = payloadOff + cells*8
	return payloadOff, fileSize, nil
}
