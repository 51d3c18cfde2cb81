package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// ConvertOptions configures ConvertCSV.
type ConvertOptions struct {
	// ShardRows is the output sharding granularity (last shard may be
	// shorter). Required: must be positive.
	ShardRows int

	// Header, when true, skips the first record of the FIRST segment only;
	// continuation segments are raw data rows (a pre-split file has one
	// header at most).
	Header bool
}

// segmentResult is one parsed segment: its row count, width, and the temp
// file holding its rows as raw little-endian float64 payload bytes.
type segmentResult struct {
	rows int
	d    int
	path string
	err  error
}

// ConvertCSV streams pre-split CSV segments into one binary dataset file at
// out, parsing the segments concurrently. The segments are the pieces of one
// logical CSV in order (e.g. from split(1)); a record never straddles a
// segment boundary, but shard boundaries are independent of segment
// boundaries — the assembly phase re-chunks the concatenated row stream at
// exactly opts.ShardRows rows, so the output bytes depend only on the data
// and ShardRows, never on how the input was split. Converting then opening
// yields a dataset equal to ReadCSV over the concatenated segments.
//
// Each segment is parsed by dataset.ScanCSV, so the accepted input language
// is ReadCSV's: every field must parse as a finite float64 and all rows
// (across all segments) must share the first data row's width. Each segment
// must contain at least one data row. Peak memory is O(d) per concurrent
// segment plus I/O buffers — rows stream through temp spill files and are
// never all resident.
//
// The write is atomic: bytes land in out+".tmp" and are renamed over out
// only after a successful sync.
func ConvertCSV(out string, segments []string, opts ConvertOptions) (Info, error) {
	if len(segments) == 0 {
		return Info{}, fmt.Errorf("binfmt: convert: no input segments")
	}
	if opts.ShardRows <= 0 {
		return Info{}, fmt.Errorf("binfmt: convert: ShardRows = %d must be positive", opts.ShardRows)
	}

	tmpDir, err := os.MkdirTemp(filepath.Dir(out), ".sspcb-convert-*")
	if err != nil {
		return Info{}, fmt.Errorf("binfmt: convert: %w", err)
	}
	defer os.RemoveAll(tmpDir)

	// Phase 1: parse every segment concurrently into a raw payload spill.
	results := make([]segmentResult, len(segments))
	var wg sync.WaitGroup
	for i, seg := range segments {
		wg.Add(1)
		go func(i int, seg string) {
			defer wg.Done()
			spill := filepath.Join(tmpDir, fmt.Sprintf("seg-%d.raw", i))
			rows, d, err := parseSegment(seg, spill, opts.Header && i == 0)
			results[i] = segmentResult{rows: rows, d: d, path: spill, err: err}
		}(i, seg)
	}
	wg.Wait()

	n, d := 0, 0
	for i, res := range results {
		if res.err != nil {
			return Info{}, fmt.Errorf("binfmt: convert segment %s: %w", segments[i], res.err)
		}
		if i == 0 {
			d = res.d
		} else if res.d != d {
			return Info{}, fmt.Errorf("binfmt: convert segment %s: rows have %d values, want %d (width of %s)",
				segments[i], res.d, d, segments[0])
		}
		n += res.rows
	}

	// Phase 2: sequential assembly — concatenate the spills into the payload
	// while re-chunking stats at shardRows boundaries and hashing, then stamp
	// the prefix.
	payloadOff, _, err := layoutSizes(n, d, opts.ShardRows)
	if err != nil {
		return Info{}, err
	}
	tmpOut := out + ".tmp"
	f, err := os.Create(tmpOut)
	if err != nil {
		return Info{}, fmt.Errorf("binfmt: convert: %w", err)
	}
	info, err := assemble(f, payloadOff, n, d, results, opts)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpOut)
		return Info{}, err
	}
	if err := os.Rename(tmpOut, out); err != nil {
		os.Remove(tmpOut)
		return Info{}, err
	}
	return info, nil
}

// parseSegment streams one CSV segment through dataset.ScanCSV into a raw
// little-endian float64 spill file, returning its row count and width.
// skipHeader drops the first record. An empty segment (no data rows) is an
// error because its width would be unknowable.
func parseSegment(path, spill string, skipHeader bool) (rows, d int, err error) {
	in, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer in.Close()
	out, err := os.Create(spill)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()

	bw := bufio.NewWriter(out)
	var rowBuf []byte
	rows, d, err = dataset.ScanCSV(bufio.NewReader(in), skipHeader, false, func(vals []float64, _ int) error {
		rowBuf = rowBuf[:0]
		for _, v := range vals {
			rowBuf = binary.LittleEndian.AppendUint64(rowBuf, math.Float64bits(v))
		}
		_, werr := bw.Write(rowBuf)
		return werr
	})
	if err != nil {
		return 0, 0, err
	}
	return rows, d, bw.Flush()
}

// assemble writes the payload (from the segment spills, in order) at
// payloadOff, computing the payload checksum and the re-chunked per-shard
// stat partials along the way, then stamps the prefix at offset 0.
func assemble(f *os.File, payloadOff int64, n, d int, results []segmentResult, opts ConvertOptions) (Info, error) {
	if _, err := f.Seek(payloadOff, io.SeekStart); err != nil {
		return Info{}, err
	}
	numShards := numShardsFor(n, opts.ShardRows)
	bw := bufio.NewWriter(f)
	crc := crc64.New(crcTable)
	acc := stats.NewColumns(d)
	statTable := make([]byte, 0, numShards*4*d*8)
	row := make([]float64, d)
	rowBytes := make([]byte, d*8)
	for _, res := range results {
		spill, err := os.Open(res.path)
		if err != nil {
			return Info{}, err
		}
		br := bufio.NewReader(spill)
		for r := 0; r < res.rows; r++ {
			if _, err := io.ReadFull(br, rowBytes); err != nil {
				spill.Close()
				return Info{}, fmt.Errorf("binfmt: convert: spill read: %w", err)
			}
			for j := range row {
				row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rowBytes[j*8:]))
			}
			crc.Write(rowBytes)
			acc.AddRow(row)
			if _, err := bw.Write(rowBytes); err != nil {
				spill.Close()
				return Info{}, err
			}
			if acc.Rows == opts.ShardRows {
				statTable = appendStats(statTable, acc)
				acc.Reset()
			}
		}
		spill.Close()
	}
	if acc.Rows > 0 {
		statTable = appendStats(statTable, acc)
	}
	if err := bw.Flush(); err != nil {
		return Info{}, err
	}
	payloadCRC := crc.Sum64()
	if _, err := f.WriteAt(encodePrefix(n, d, opts.ShardRows, payloadCRC, statTable), 0); err != nil {
		return Info{}, err
	}
	return Info{N: n, D: d, ShardRows: opts.ShardRows, NumShards: numShards, PayloadChecksum: payloadCRC}, nil
}
