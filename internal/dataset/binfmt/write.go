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
	"repro/internal/stats"
)

// encodePrefix builds the complete pre-payload prefix of a file — fixed
// header, extent table, the stat table writeFile built with appendStats,
// and the trailing headerCRC.
func encodePrefix(n, d, shardRows int, payloadCRC uint64, statTable []byte) []byte {
	numShards := numShardsFor(n, shardRows)
	payloadOff, _, err := layoutSizes(n, d, shardRows)
	if err != nil {
		// writeFile validates the shape before it takes a row; reaching
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
	buf = append(buf, statTable...)
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

// WriteBinaryFile writes ds to path (0644) in the binary dataset format with
// the given shard granularity. Where the dataset's storage lives (the heap,
// or a file with other shard boundaries) is irrelevant: the writer reads the
// rows once, in index order, and shards the payload at exactly shardRows
// rows, so the same values always produce the same bytes — the format has
// one canonical encoding per (data, shardRows) pair, which FuzzOpenBinary
// leans on. Memory stays O(d) plus the stat table.
//
// The write is atomic: the bytes land in path+".tmp" and are renamed over
// path only after a successful sync, so a crashed writer never leaves a
// half-written file under the final name.
func WriteBinaryFile(path string, ds *dataset.Dataset, shardRows int) (Info, error) {
	n := ds.N()
	return writeFile(path, n, ds.D(), shardRows, func(emit func(row []float64) error) error {
		for i := 0; i < n; i++ {
			if err := emit(ds.Row(i)); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeFile writes every .sspcb file. It validates the shape, creates
// path+".tmp" and seeks past the prefix. rows then hands emit the n rows in
// order; emit rejects a non-finite value, encodes the row little-endian,
// folds it into the payload checksum and its shard's stat partials, and
// writes it. Last, writeFile checks that n rows came, writes the prefix at
// offset 0, syncs, and renames the file over path. On any error the temp
// file is removed and path is left as it was.
func writeFile(path string, n, d, shardRows int, rows func(emit func(row []float64) error) error) (_ Info, err error) {
	payloadOff, _, err := layoutSizes(n, d, shardRows)
	if err != nil {
		return Info{}, err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return Info{}, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if _, err = f.Seek(payloadOff, io.SeekStart); err != nil {
		return Info{}, err
	}

	bw := bufio.NewWriter(f)
	crc := crc64.New(crcTable)
	acc := stats.NewColumns(d)
	statTable := make([]byte, 0, numShardsFor(n, shardRows)*4*d*8)
	buf := make([]byte, 0, d*8)
	i := 0
	err = rows(func(row []float64) error {
		buf = buf[:0]
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite value at (%d,%d)", ErrFormat, i, j)
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		crc.Write(buf)
		acc.AddRow(row)
		if acc.Rows == shardRows {
			statTable = appendStats(statTable, acc)
			acc.Reset()
		}
		i++
		_, err := bw.Write(buf)
		return err
	})
	if err != nil {
		return Info{}, err
	}
	if i != n {
		return Info{}, fmt.Errorf("binfmt: got %d rows, want %d", i, n)
	}
	if acc.Rows > 0 {
		statTable = appendStats(statTable, acc)
	}
	payloadCRC := crc.Sum64()
	if err = bw.Flush(); err != nil {
		return Info{}, err
	}
	if _, err = f.WriteAt(encodePrefix(n, d, shardRows, payloadCRC, statTable), 0); err != nil {
		return Info{}, err
	}
	if err = f.Sync(); err != nil {
		return Info{}, err
	}
	if err = f.Close(); err != nil {
		return Info{}, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return Info{}, err
	}
	return Info{N: n, D: d, ShardRows: shardRows, NumShards: numShardsFor(n, shardRows), PayloadChecksum: payloadCRC}, nil
}
