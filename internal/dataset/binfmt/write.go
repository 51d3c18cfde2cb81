package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"

	"repro/internal/dataset"
)

// encodeRow appends row's float64 bits little-endian to buf[:0] and returns
// the filled slice. buf must have capacity for len(row)*8 bytes.
func encodeRow(buf []byte, row []float64) []byte {
	buf = buf[:0]
	for _, v := range row {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// encodePrefix builds the complete pre-payload prefix of a file — fixed
// header, extent table, stat table, and the trailing headerCRC — so the
// writer paths (WriteBinary, ConvertCSV) emit byte-identical files for
// identical data and shardRows.
func encodePrefix(n, d, shardRows int, payloadCRC uint64, perShard []stats) []byte {
	numShards := numShardsFor(n, shardRows)
	payloadOff, _, err := layoutSizes(n, d, shardRows)
	if err != nil {
		// The writers validate shape before accumulating stats; reaching
		// here is a programming error, not an input error.
		panic(err)
	}
	buf := make([]byte, 0, payloadOff)
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // flags, reserved
	buf = binary.LittleEndian.AppendUint64(buf, uint64(n))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(d))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(shardRows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(numShards))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(payloadOff))
	buf = binary.LittleEndian.AppendUint64(buf, payloadCRC)
	for s := 0; s < numShards; s++ {
		lo, hi := shardRowRange(n, shardRows, s)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(lo))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(hi))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(payloadOff)+uint64(lo)*uint64(d)*8)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(hi-lo)*uint64(d)*8)
	}
	for _, st := range perShard {
		for _, col := range [][]float64{st.mn, st.mx, st.mean, st.vr} {
			for _, v := range col {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(buf, crcTable))
}

// shardRowRange returns shard s's row range [lo, hi).
func shardRowRange(n, shardRows, s int) (lo, hi int) {
	lo = s * shardRows
	hi = lo + shardRows
	if hi > n {
		hi = n
	}
	return lo, hi
}

// WriteBinary writes ds in the binary dataset format with the given shard
// granularity. Where the dataset's storage lives (the heap, or a file with
// other shard boundaries) is irrelevant: the writer walks rows in index order and
// shards the payload at exactly shardRows rows, so the same values always
// produce the same bytes — the format has one canonical encoding per
// (data, shardRows) pair, which FuzzOpenBinary leans on.
//
// Memory stays O(d): the rows are scanned twice (once for stats and the
// payload checksum, once to emit), never buffered.
func WriteBinary(w io.Writer, ds *dataset.Dataset, shardRows int) (Info, error) {
	n, d := ds.N(), ds.D()
	if _, _, err := layoutSizes(n, d, shardRows); err != nil {
		return Info{}, err
	}
	numShards := numShardsFor(n, shardRows)

	// Pass 1: per-shard stat partials and the payload checksum.
	crc := crc64.New(crcTable)
	accum := newShardAccum(d)
	perShard := make([]stats, 0, numShards)
	rowBuf := make([]byte, 0, d*8)
	for i := 0; i < n; i++ {
		row := ds.Row(i)
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return Info{}, fmt.Errorf("%w: non-finite value at (%d,%d)", ErrFormat, i, j)
			}
		}
		crc.Write(encodeRow(rowBuf, row))
		accum.addRow(row)
		if accum.rows == shardRows {
			perShard = append(perShard, accum.finish())
			accum.reset()
		}
	}
	if accum.rows > 0 {
		perShard = append(perShard, accum.finish())
	}
	payloadCRC := crc.Sum64()

	// Pass 2: emit prefix then payload.
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(encodePrefix(n, d, shardRows, payloadCRC, perShard)); err != nil {
		return Info{}, err
	}
	for i := 0; i < n; i++ {
		if _, err := bw.Write(encodeRow(rowBuf, ds.Row(i))); err != nil {
			return Info{}, err
		}
	}
	if err := bw.Flush(); err != nil {
		return Info{}, err
	}
	return Info{N: n, D: d, ShardRows: shardRows, NumShards: numShards, PayloadChecksum: payloadCRC}, nil
}

// WriteBinaryFile writes ds to path (0644) in the binary dataset format,
// atomically: the bytes land in path+".tmp" and are renamed over path only
// after a successful sync, so a crashed writer never leaves a half-written
// file under the final name.
func WriteBinaryFile(path string, ds *dataset.Dataset, shardRows int) (Info, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return Info{}, err
	}
	info, err := WriteBinary(f, ds, shardRows)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return Info{}, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return Info{}, err
	}
	return info, nil
}
