package binfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
	"os"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/stats"
)

// hostLittleEndian reports whether float64/uint64 loads through an aliased
// pointer read little-endian bytes natively. On big-endian hosts the reader
// falls back to decode-copying the payload instead of aliasing it.
var hostLittleEndian = func() bool {
	var x uint32 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// File is an opened binary dataset. On little-endian hosts (with an mmap
// platform) its dataset aliases the mapped payload zero-copy, so the
// resident set is whatever the algorithms actually touch; elsewhere the
// payload is decoded into one heap slice with identical values. The dataset
// is read-only either way (Set panics). Close releases the mapping — the
// dataset must not be used afterwards.
type File struct {
	n, d       int
	shardRows  int
	numShards  int
	payloadCRC uint64

	data   []byte // the whole file: mapped pages or a heap copy
	mapped bool
	ds     *dataset.Dataset
}

// OpenBinary opens, maps and fully verifies a binary dataset file. Every
// byte is checked before a dataset is returned: magic, version, flags,
// structural shape, header CRC, extent table consistency, payload CRC,
// per-shard stat partials (bit-exact replay), and value finiteness. A file
// that fails any check yields a typed error — ErrBadMagic, ErrVersion,
// ErrTruncated, ErrChecksum or ErrFormat (match with errors.Is) — and never
// a dataset, so corrupted or truncated inputs cannot produce garbage
// clusters.
func OpenBinary(path string) (*File, error) {
	if err := faults.Check(faults.SiteMmapOpen); err != nil {
		return nil, fmt.Errorf("%s: open: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()

	hdr := make([]byte, fixedHeaderSize)
	m, _ := f.ReadAt(hdr, 0)
	if m < len(Magic) {
		if string(hdr[:m]) == Magic[:m] {
			return nil, fmt.Errorf("%s: %w: %d bytes", path, ErrTruncated, size)
		}
		return nil, fmt.Errorf("%s: %w", path, ErrBadMagic)
	}
	if string(hdr[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%s: %w", path, ErrBadMagic)
	}
	if m < fixedHeaderSize {
		return nil, fmt.Errorf("%s: %w: %d bytes is shorter than the %d-byte header", path, ErrTruncated, size, fixedHeaderSize)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return nil, fmt.Errorf("%s: %w", path, &VersionError{Got: v, Want: Version})
	}
	if flags := binary.LittleEndian.Uint32(hdr[12:16]); flags != 0 {
		return nil, fmt.Errorf("%s: %w: nonzero reserved flags %#x", path, ErrFormat, flags)
	}
	hN := binary.LittleEndian.Uint64(hdr[16:24])
	hD := binary.LittleEndian.Uint64(hdr[24:32])
	hShardRows := binary.LittleEndian.Uint64(hdr[32:40])
	hNumShards := binary.LittleEndian.Uint64(hdr[40:48])
	hPayloadOff := binary.LittleEndian.Uint64(hdr[48:56])
	payloadCRC := binary.LittleEndian.Uint64(hdr[56:64])
	for _, hv := range []uint64{hN, hD, hShardRows, hNumShards} {
		if hv == 0 || hv > maxDim {
			return nil, fmt.Errorf("%s: %w: header field out of range", path, ErrFormat)
		}
	}
	n, d, shardRows := int(hN), int(hD), int(hShardRows)
	payloadOff, fileSize, err := layoutSizes(n, d, shardRows)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	numShards := numShardsFor(n, shardRows)
	if int(hNumShards) != numShards {
		return nil, fmt.Errorf("%s: %w: header declares %d shards, shape implies %d", path, ErrFormat, hNumShards, numShards)
	}
	if hPayloadOff != uint64(payloadOff) {
		return nil, fmt.Errorf("%s: %w: header declares payload offset %d, layout implies %d", path, ErrFormat, hPayloadOff, payloadOff)
	}
	if size < fileSize {
		return nil, fmt.Errorf("%s: %w: %d bytes, layout requires %d", path, ErrTruncated, size, fileSize)
	}
	if size > fileSize {
		return nil, fmt.Errorf("%s: %w: %d trailing bytes after the payload", path, ErrFormat, size-fileSize)
	}

	data, mapped, err := mapFile(f, size)
	if err != nil {
		return nil, fmt.Errorf("%s: map: %w", path, err)
	}
	fl := &File{
		n: n, d: d, shardRows: shardRows, numShards: numShards,
		payloadCRC: payloadCRC, data: data, mapped: mapped,
	}
	if err := fl.verifyAndBuild(payloadOff); err != nil {
		fl.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return fl, nil
}

// verifyAndBuild runs the post-map integrity checks (header CRC, extents,
// payload CRC, stat partials, finiteness) and constructs the read-only
// dataset over the payload.
func (fl *File) verifyAndBuild(payloadOff int64) error {
	data, n, d, shardRows := fl.data, fl.n, fl.d, fl.shardRows

	crcOff := payloadOff - crcSize
	if got, want := crc64.Checksum(data[:crcOff], crcTable), binary.LittleEndian.Uint64(data[crcOff:payloadOff]); got != want {
		return fmt.Errorf("%w: header CRC %016x, want %016x", ErrChecksum, got, want)
	}
	payload := data[payloadOff:]
	if got := crc64.Checksum(payload, crcTable); got != fl.payloadCRC {
		return fmt.Errorf("%w: payload CRC %016x, header declares %016x", ErrChecksum, got, fl.payloadCRC)
	}

	// Extent table: every entry must equal the value derived from the shape.
	for s := 0; s < fl.numShards; s++ {
		ext := data[fixedHeaderSize+s*extentSize:]
		lo, hi := shardRowRange(n, shardRows, s)
		wantOff := uint64(payloadOff) + uint64(lo)*uint64(d)*8
		wantBytes := uint64(hi-lo) * uint64(d) * 8
		if binary.LittleEndian.Uint64(ext[0:8]) != uint64(lo) ||
			binary.LittleEndian.Uint64(ext[8:16]) != uint64(hi) ||
			binary.LittleEndian.Uint64(ext[16:24]) != wantOff ||
			binary.LittleEndian.Uint64(ext[24:32]) != wantBytes {
			return fmt.Errorf("%w: extent %d contradicts the header shape", ErrFormat, s)
		}
	}

	// The payload is the whole matrix, row-major (shards sit back to back).
	// Alias it when the host reads the file's little-endian float bits
	// natively and the region is 8-aligned (payloadOff is a multiple of 8 and
	// mappings are page-aligned, so aliasing only fails on the heap-copy
	// fallback with an odd base); otherwise decode-copy.
	var vals []float64
	if hostLittleEndian && uintptr(unsafe.Pointer(&payload[0]))%unsafe.Alignof(float64(0)) == 0 {
		vals = unsafe.Slice((*float64)(unsafe.Pointer(&payload[0])), n*d)
	} else {
		vals = make([]float64, n*d)
		for t := range vals {
			vals[t] = math.Float64frombits(binary.LittleEndian.Uint64(payload[t*8:]))
		}
	}

	// Stat table: replay each shard's rows through the writer's accumulator
	// and demand bit equality, rejecting non-finite payload values on the
	// way. This proves the payload holds the values the writer saw, even
	// when both checksums were recomputed after an edit.
	statTable := data[fixedHeaderSize+fl.numShards*extentSize : crcOff]
	recSize := 4 * d * 8
	acc := stats.NewColumns(d)
	rec := make([]byte, 0, recSize)
	for s := 0; s < fl.numShards; s++ {
		lo, hi := shardRowRange(n, shardRows, s)
		blk := vals[lo*d : hi*d]
		for t, v := range blk {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite value in shard %d at offset %d", ErrFormat, s, t)
			}
		}
		acc.Reset()
		for base := 0; base < len(blk); base += d {
			acc.AddRow(blk[base : base+d])
		}
		rec = appendStats(rec[:0], acc)
		if !bytes.Equal(rec, statTable[s*recSize:(s+1)*recSize]) {
			return fmt.Errorf("%w: shard %d stat partial does not match its rows", ErrChecksum, s)
		}
	}

	ds, err := dataset.FromReadOnly(n, d, vals)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFormat, err)
	}
	fl.ds = ds
	return nil
}

// Dataset returns the file's matrix for the algorithms. It shares the
// mapping: do not use it after Close.
func (fl *File) Dataset() *dataset.Dataset { return fl.ds }

// ContentHash returns the file's dataset fingerprint for model registries:
// shape plus payload checksum, invariant under re-sharding (the payload is
// the rows in row order whatever the shard boundaries). Computing it needs
// no data scan beyond the verification OpenBinary already did.
func (fl *File) ContentHash() string {
	return fmt.Sprintf("sspcb%d:%dx%d:%016x", Version, fl.n, fl.d, fl.payloadCRC)
}

// Close releases the file mapping. The dataset returned by Dataset must not
// be touched afterwards (it aliases the mapping on mmap platforms). Close is
// idempotent.
func (fl *File) Close() error {
	if fl.data == nil {
		return nil
	}
	data, mapped := fl.data, fl.mapped
	fl.data, fl.ds = nil, nil
	if !mapped {
		return nil
	}
	return unmapFile(data)
}
