package binfmt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
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
// out. The segments are the pieces of one logical CSV in order (e.g. from
// split(1)); a record never straddles a segment boundary, but shard
// boundaries are independent of segment boundaries — the rows are re-chunked
// at exactly opts.ShardRows rows, so the output bytes depend only on the
// data and ShardRows, never on how the input was split, and equal
// WriteBinaryFile's over the same matrix. Converting then opening yields a
// dataset equal to ReadCSV over the concatenated segments.
//
// Each segment is parsed by dataset.ScanCSV, so the accepted input language
// is ReadCSV's: every field must parse as a finite float64 and all rows
// (across all segments) must share the first data row's width. Each segment
// must contain at least one data row. At most GOMAXPROCS segments are parsed
// at a time, each into a temp spill file of raw payload bytes; the spills
// are then written out in segment order. Peak memory is O(d) per parser,
// with at most GOMAXPROCS parsers, plus I/O buffers — the rows are never all
// resident.
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

	// Phase 1: parse the segments into raw payload spills. Each parser holds
	// its segment and its spill open, so their number is bounded.
	results := make([]segmentResult, len(segments))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(segments)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(segments) {
					return
				}
				spill := filepath.Join(tmpDir, fmt.Sprintf("seg-%d.raw", i))
				rows, d, err := parseSegment(segments[i], spill, opts.Header && i == 0)
				results[i] = segmentResult{rows: rows, d: d, path: spill, err: err}
			}
		}()
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

	// Phase 2: write the spills' rows out in segment order.
	row := make([]float64, d)
	rowBytes := make([]byte, d*8)
	return writeFile(out, n, d, opts.ShardRows, func(emit func(row []float64) error) error {
		for _, res := range results {
			spill, err := os.Open(res.path)
			if err != nil {
				return err
			}
			br := bufio.NewReader(spill)
			for r := 0; r < res.rows && err == nil; r++ {
				if _, err = io.ReadFull(br, rowBytes); err != nil {
					err = fmt.Errorf("binfmt: convert: spill read: %w", err)
					break
				}
				for j := range row {
					row[j] = math.Float64frombits(binary.LittleEndian.Uint64(rowBytes[j*8:]))
				}
				err = emit(row)
			}
			spill.Close()
			if err != nil {
				return err
			}
		}
		return nil
	})
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
