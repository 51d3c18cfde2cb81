package binfmt

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc64"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/dataset"
)

// testDataset builds an n×d dataset with deterministic pseudo-random values
// (negatives, fractions, and magnitude spread, so stat partials are
// non-trivial).
func testDataset(t *testing.T, n, d int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1000 + d)))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = (rng.Float64() - 0.5) * math.Pow(10, float64(j%5-2))
		}
	}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// writeTemp writes ds to a fresh temp file and returns the path.
func writeTemp(t testing.TB, ds *dataset.Dataset, shardRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.sspcb")
	if _, err := WriteBinaryFile(path, ds, shardRows); err != nil {
		t.Fatal(err)
	}
	return path
}

// encoded returns the bytes WriteBinaryFile writes for ds.
func encoded(t testing.TB, ds *dataset.Dataset, shardRows int) []byte {
	t.Helper()
	b, err := os.ReadFile(writeTemp(t, ds, shardRows))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openTemp opens a binary dataset and registers its cleanup.
func openTemp(t *testing.T, path string) *File {
	t.Helper()
	fl, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl
}

// requireSameMatrix asserts got holds bit-identical values and statistics to
// want.
func requireSameMatrix(t *testing.T, got, want *dataset.Dataset) {
	t.Helper()
	if got.N() != want.N() || got.D() != want.D() {
		t.Fatalf("shape %dx%d, want %dx%d", got.N(), got.D(), want.N(), want.D())
	}
	for i := 0; i < want.N(); i++ {
		for j := 0; j < want.D(); j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				t.Fatalf("value (%d,%d) = %x, want %x", i, j,
					math.Float64bits(got.At(i, j)), math.Float64bits(want.At(i, j)))
			}
		}
	}
	for j := 0; j < want.D(); j++ {
		for name, pair := range map[string][2]float64{
			"mean": {got.ColMean(j), want.ColMean(j)},
			"var":  {got.ColVariance(j), want.ColVariance(j)},
			"min":  {got.ColMin(j), want.ColMin(j)},
			"max":  {got.ColMax(j), want.ColMax(j)},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				t.Fatalf("col %d %s = %v, want %v (stats drifted across storage tiers)", j, name, pair[0], pair[1])
			}
		}
	}
}

func TestRoundTrip(t *testing.T) {
	const n, d = 53, 7
	ds := testDataset(t, n, d)
	for _, shardRows := range []int{1, 7, 16, n, n + 100} {
		t.Run(fmt.Sprintf("shardRows=%d", shardRows), func(t *testing.T) {
			path := writeTemp(t, ds, shardRows)
			fl := openTemp(t, path)
			wantShards := (n + shardRows - 1) / shardRows
			if fl.n != n || fl.d != d || fl.shardRows != shardRows || fl.numShards != wantShards {
				t.Fatalf("opened %d/%d/%d/%d, want %d/%d/%d/%d",
					fl.n, fl.d, fl.shardRows, fl.numShards, n, d, shardRows, wantShards)
			}
			requireSameMatrix(t, fl.Dataset(), ds)
		})
	}
}

// TestWriteBinaryCanonical pins the one-encoding-per-(data,shardRows)
// property: the writer's bytes depend only on the values and the shard
// granularity, not on the source dataset's own storage layout.
func TestWriteBinaryCanonical(t *testing.T) {
	ds := testDataset(t, 41, 5)
	sharded := openTemp(t, writeTemp(t, ds, 6)).Dataset() // different boundaries than the output's
	if !bytes.Equal(encoded(t, ds, 9), encoded(t, sharded, 9)) {
		t.Fatal("WriteBinaryFile bytes differ between flat and sharded sources of the same values")
	}
}

func TestWriteBinaryRejectsBadShape(t *testing.T) {
	ds := testDataset(t, 5, 3)
	path := filepath.Join(t.TempDir(), "out.sspcb")
	if _, err := WriteBinaryFile(path, ds, 0); !errors.Is(err, ErrFormat) {
		t.Fatalf("shardRows=0: err = %v, want ErrFormat", err)
	}
	if _, err := WriteBinaryFile(path, ds, -4); !errors.Is(err, ErrFormat) {
		t.Fatalf("shardRows=-4: err = %v, want ErrFormat", err)
	}
}

// writeCSVSegments splits ds's CSV rendering into the given row-count
// segments on disk and returns their paths.
func writeCSVSegments(t *testing.T, ds *dataset.Dataset, rowCounts []int) []string {
	t.Helper()
	var whole bytes.Buffer
	if err := dataset.WriteCSV(&whole, ds, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(whole.String(), "\n"), "\n")
	dir := t.TempDir()
	var paths []string
	next := 0
	for s, cnt := range rowCounts {
		path := filepath.Join(dir, fmt.Sprintf("seg-%d.csv", s))
		if err := os.WriteFile(path, []byte(strings.Join(lines[next:next+cnt], "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		next += cnt
	}
	if next != ds.N() {
		t.Fatalf("segment rows sum to %d, want %d", next, ds.N())
	}
	return paths
}

// TestConvertCSVMatchesWriteBinary pins segment-boundary independence: the
// converter's output over any pre-split of the input is byte-identical to
// WriteBinaryFile over the same matrix. The one-row-per-segment split has
// more segments than the converter runs parsers, so parsers take several
// segments each and the spills still come out in segment order.
func TestConvertCSVMatchesWriteBinary(t *testing.T) {
	const n, d, shardRows = 37, 4, 8
	ds := testDataset(t, n, d)
	want := encoded(t, ds, shardRows)
	ones := make([]int, n)
	for i := range ones {
		ones[i] = 1
	}
	for _, split := range [][]int{{n}, {10, 17, 10}, {1, 35, 1}, {7, 7, 7, 7, 9}, ones} {
		t.Run(fmt.Sprintf("split=%v", split), func(t *testing.T) {
			segs := writeCSVSegments(t, ds, split)
			out := filepath.Join(t.TempDir(), "out.sspcb")
			info, err := ConvertCSV(out, segs, ConvertOptions{ShardRows: shardRows})
			if err != nil {
				t.Fatal(err)
			}
			if info.N != n || info.D != d || info.NumShards != (n+shardRows-1)/shardRows {
				t.Fatalf("info = %+v", info)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("ConvertCSV bytes differ from WriteBinaryFile over the same matrix")
			}
			fl := openTemp(t, out)
			requireSameMatrix(t, fl.Dataset(), ds)
		})
	}
}

func TestConvertCSVHeader(t *testing.T) {
	ds := testDataset(t, 12, 3)
	segs := writeCSVSegments(t, ds, []int{5, 7})
	withHeader := filepath.Join(t.TempDir(), "seg-0h.csv")
	body, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(withHeader, append([]byte("c0,c1,c2\n"), body...), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.sspcb")
	if _, err := ConvertCSV(out, []string{withHeader, segs[1]}, ConvertOptions{ShardRows: 5, Header: true}); err != nil {
		t.Fatal(err)
	}
	requireSameMatrix(t, openTemp(t, out).Dataset(), ds)
}

func TestConvertCSVErrors(t *testing.T) {
	dir := t.TempDir()
	mk := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := mk("good.csv", "1,2\n3,4\n")
	out := filepath.Join(dir, "out.sspcb")
	cases := map[string]struct {
		segs []string
		opts ConvertOptions
		want string
	}{
		"no segments":    {nil, ConvertOptions{ShardRows: 4}, "no input segments"},
		"bad shardRows":  {[]string{good}, ConvertOptions{}, "ShardRows"},
		"empty segment":  {[]string{good, mk("empty.csv", "")}, ConvertOptions{ShardRows: 4}, "no data rows"},
		"ragged within":  {[]string{mk("ragged.csv", "1,2\n3\n")}, ConvertOptions{ShardRows: 4}, "want 2"},
		"ragged across":  {[]string{good, mk("wide.csv", "1,2,3\n")}, ConvertOptions{ShardRows: 4}, "width"},
		"non-finite":     {[]string{mk("nan.csv", "1,NaN\n")}, ConvertOptions{ShardRows: 4}, "non-finite"},
		"unparsable":     {[]string{mk("text.csv", "1,frog\n")}, ConvertOptions{ShardRows: 4}, "col 1"},
		"missing input":  {[]string{filepath.Join(dir, "absent.csv")}, ConvertOptions{ShardRows: 4}, "absent.csv"},
		"header only":    {[]string{mk("hdr.csv", "a,b\n")}, ConvertOptions{ShardRows: 4, Header: true}, "no data rows"},
		"header mid-seg": {[]string{good, mk("hdr2.csv", "a,b\n1,2\n")}, ConvertOptions{ShardRows: 4, Header: true}, "col 0"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := ConvertCSV(out, tc.segs, tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if _, serr := os.Stat(out); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("failed convert left output behind (stat err = %v)", serr)
			}
		})
	}
}

// corrupt returns a copy of base with mutate applied, written to a fresh
// file.
func corrupt(t *testing.T, base []byte, mutate func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corrupt.sspcb")
	if err := os.WriteFile(path, mutate(append([]byte(nil), base...)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// patchHeaderCRC recomputes the prefix checksum after a deliberate table
// mutation, so the test reaches the verification layer behind the CRC.
func patchHeaderCRC(b []byte) {
	payloadOff := binary.LittleEndian.Uint64(b[48:56])
	crcOff := payloadOff - crcSize
	binary.LittleEndian.PutUint64(b[crcOff:payloadOff], crc64.Checksum(b[:crcOff], crcTable))
}

// TestOpenBinaryTypedErrors is the crash-robustness half of the disk tier's
// contract: every corruption class yields its typed error and never a
// dataset.
func TestOpenBinaryTypedErrors(t *testing.T) {
	const n, d, shardRows = 19, 3, 4
	ds := testDataset(t, n, d)
	path := writeTemp(t, ds, shardRows)
	base, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payloadOff := int(binary.LittleEndian.Uint64(base[48:56]))

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   error
	}{
		"empty file":       {func(b []byte) []byte { return nil }, ErrTruncated},
		"magic prefix":     {func(b []byte) []byte { return b[:4] }, ErrTruncated},
		"header cut":       {func(b []byte) []byte { return b[:fixedHeaderSize-1] }, ErrTruncated},
		"table cut":        {func(b []byte) []byte { return b[:fixedHeaderSize+10] }, ErrTruncated},
		"payload cut":      {func(b []byte) []byte { return b[:len(b)-1] }, ErrTruncated},
		"half payload":     {func(b []byte) []byte { return b[:payloadOff+(len(b)-payloadOff)/2] }, ErrTruncated},
		"not a dataset":    {func(b []byte) []byte { return []byte("totally not a dataset file") }, ErrBadMagic},
		"magic flip":       {func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		"version skew":     {func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:12], Version+1); return b }, ErrVersion},
		"reserved flags":   {func(b []byte) []byte { binary.LittleEndian.PutUint32(b[12:16], 1); return b }, ErrFormat},
		"zero rows":        {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:24], 0); return b }, ErrFormat},
		"absurd rows":      {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[16:24], 1<<50); return b }, ErrFormat},
		"shard miscount":   {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[40:48], 99); return b }, ErrFormat},
		"payload off lie":  {func(b []byte) []byte { binary.LittleEndian.PutUint64(b[48:56], 8); return b }, ErrFormat},
		"trailing garbage": {func(b []byte) []byte { return append(b, 0xAB) }, ErrFormat},
		"header bit flip":  {func(b []byte) []byte { b[fixedHeaderSize+3] ^= 0x40; return b }, ErrChecksum},
		"stat table flip":  {func(b []byte) []byte { b[payloadOff-crcSize-5] ^= 0x01; return b }, ErrChecksum},
		"payload flip":     {func(b []byte) []byte { b[payloadOff+7] ^= 0x20; return b }, ErrChecksum},
		"stat lie, CRC patched": {func(b []byte) []byte {
			// A coherent-looking file whose stat table disagrees with its
			// payload: only the replay verification can catch it.
			statOff := fixedHeaderSize + ((n+shardRows-1)/shardRows)*extentSize
			binary.LittleEndian.PutUint64(b[statOff:], math.Float64bits(123.456))
			patchHeaderCRC(b)
			return b
		}, ErrChecksum},
		"payload lie, CRCs patched": {func(b []byte) []byte {
			// Flip a payload value and launder both checksums; the stat
			// replay must still refuse it.
			b[payloadOff+7] ^= 0x20
			binary.LittleEndian.PutUint64(b[56:64], crc64.Checksum(b[payloadOff:], crcTable))
			patchHeaderCRC(b)
			return b
		}, ErrChecksum},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			fl, err := OpenBinary(corrupt(t, base, tc.mutate))
			if fl != nil {
				fl.Close()
				t.Fatal("corrupted file produced a dataset")
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}

	t.Run("version skew detail", func(t *testing.T) {
		_, err := OpenBinary(corrupt(t, base, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:12], 7)
			return b
		}))
		var ve *VersionError
		if !errors.As(err, &ve) || ve.Got != 7 || ve.Want != Version {
			t.Fatalf("err = %v, want *VersionError{Got:7}", err)
		}
	})

	t.Run("missing file", func(t *testing.T) {
		if _, err := OpenBinary(filepath.Join(t.TempDir(), "absent.sspcb")); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("err = %v, want fs not-exist", err)
		}
	})
}

// TestReadOnly pins the mmap safety contract: writing through the aliased
// storage must panic (not fault), and Clone lifts the restriction.
func TestReadOnly(t *testing.T) {
	ds := testDataset(t, 10, 3)
	fl := openTemp(t, writeTemp(t, ds, 4))
	requireReadOnly(t, fl.Dataset())
}

// requireReadOnly asserts ds refuses Set and that its Clone is a writable
// copy that shares no storage with it.
func requireReadOnly(t *testing.T, ds *dataset.Dataset) {
	t.Helper()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Set on an opened dataset did not panic")
			}
		}()
		ds.Set(0, 0, 1.0)
	}()
	clone := ds.Clone()
	clone.Set(0, 0, 42.0)
	if clone.At(0, 0) != 42.0 {
		t.Fatal("clone of a read-only dataset is not writable")
	}
	if ds.At(0, 0) == 42.0 {
		t.Fatal("clone shares storage with the opened dataset")
	}
}

// TestOpenBinaryDecodeCopy drives the reader's fallback for hosts whose
// float loads are not little-endian: with aliasing switched off, every shard
// size must decode-copy the payload off the mapping into values bit-equal
// to the aliased open, and the copy must stay read-only like the alias.
func TestOpenBinaryDecodeCopy(t *testing.T) {
	const n, d = 53, 7
	ds := testDataset(t, n, d)
	aliasing := hostLittleEndian
	t.Cleanup(func() { hostLittleEndian = aliasing })
	// inFile reports whether ds's storage lies inside fl's file bytes.
	inFile := func(fl *File, ds *dataset.Dataset) bool {
		p := uintptr(unsafe.Pointer(&ds.Row(0)[0]))
		base := uintptr(unsafe.Pointer(&fl.data[0]))
		return p >= base && p < base+uintptr(len(fl.data))
	}
	for _, shardRows := range []int{1, 7, 16, n} {
		t.Run(fmt.Sprintf("shardRows=%d", shardRows), func(t *testing.T) {
			path := writeTemp(t, ds, shardRows)
			hostLittleEndian = aliasing
			aliased := openTemp(t, path)
			hostLittleEndian = false
			copied := openTemp(t, path)
			if aliasing && !inFile(aliased, aliased.Dataset()) {
				t.Fatal("little-endian open did not alias the file")
			}
			if inFile(copied, copied.Dataset()) {
				t.Fatal("open with aliasing off still aliases the file")
			}
			requireSameMatrix(t, copied.Dataset(), aliased.Dataset())
			requireSameMatrix(t, copied.Dataset(), ds)
			requireReadOnly(t, copied.Dataset())
		})
	}
}

func TestContentHash(t *testing.T) {
	ds := testDataset(t, 30, 4)
	a := openTemp(t, writeTemp(t, ds, 5))
	b := openTemp(t, writeTemp(t, ds, 11))
	if a.ContentHash() != b.ContentHash() {
		t.Fatalf("ContentHash varies with shardRows: %s vs %s", a.ContentHash(), b.ContentHash())
	}
	other := openTemp(t, writeTemp(t, testDataset(t, 30, 5), 5))
	if a.ContentHash() == other.ContentHash() {
		t.Fatal("different data, same ContentHash")
	}
}

func TestCloseIdempotent(t *testing.T) {
	fl := openTemp(t, writeTemp(t, testDataset(t, 8, 2), 3))
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBinaryFileAtomic pins the crashed-writer guarantee: a failed
// write leaves neither the final file nor the temp file behind.
func TestWriteBinaryFileAtomic(t *testing.T) {
	dir := t.TempDir()
	rows := [][]float64{{1, 2}, {3, 4}}
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "out.sspcb")
	if _, err := WriteBinaryFile(path, ds, 0); err == nil {
		t.Fatal("invalid shardRows accepted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed write left %d files behind", len(entries))
	}
}

// TestWriteBinaryFileNonFinite fails a write part-way through the rows: the
// error is ErrFormat, the temp file is gone, and a file already at the path
// keeps its bytes.
func TestWriteBinaryFileNonFinite(t *testing.T) {
	ds := testDataset(t, 10, 3)
	path := writeTemp(t, ds, 4)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := ds.Clone()
	bad.Set(6, 1, math.Inf(-1)) // second shard: rows 0–5 are already written
	if _, err := WriteBinaryFile(path, bad, 4); !errors.Is(err, ErrFormat) {
		t.Fatalf("err = %v, want ErrFormat", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatal("failed write changed the existing file")
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("failed write left %d entries behind (err %v)", len(entries), err)
	}
}

// TestEncodeDigest pins the bytes the writers produce and the column
// statistics an opened file's dataset reports, by a SHA-256 over
// WriteBinaryFile's bytes and the ColMean, ColVariance, ColMin and ColMax
// bits of each opened file, for several shapes (1×1 among them) and shard
// sizes from one row to more rows than n. ConvertCSV must write the same
// bytes as WriteBinaryFile. The stat table and the open-time
// replay share one accumulator, so a recurrence change made in both would
// pass every round-trip test; the digest is what notices it, and files
// already written would no longer open.
func TestEncodeDigest(t *testing.T) {
	const want = "aabf9c6c24e1e3b6670859805d29f6e30a6cf66c104c87a1abf6afd4b71762e1"
	edge, err := dataset.FromRows([][]float64{
		{0, 3, 1e150, 5e-324},
		{math.Copysign(0, -1), 3, -1e150, -2.5e-310},
		{0.1, 3, 7, 1e-300},
		{-0.3, 3, 1e150, 0},
		{1e15 + 0.5, 3, -7, 5e-324},
	})
	if err != nil {
		t.Fatal(err)
	}
	shapes := []*dataset.Dataset{
		testDataset(t, 1, 1),
		testDataset(t, 1, 3),
		testDataset(t, 2, 1),
		testDataset(t, 5, 4),
		testDataset(t, 53, 7),
		edge,
	}
	dir := t.TempDir()
	h := sha256.New()
	var buf [8]byte
	for _, ds := range shapes {
		n := ds.N()
		for _, shardRows := range []int{1, 2, 3, 7, 16, n, n + 5} {
			path := filepath.Join(dir, fmt.Sprintf("%dx%d-%d.sspcb", n, ds.D(), shardRows))
			if _, err := WriteBinaryFile(path, ds, shardRows); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(want)
			out := path + ".converted"
			if _, err := ConvertCSV(out, writeCSVSegments(t, ds, []int{n}), ConvertOptions{ShardRows: shardRows}); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%dx%d, shardRows %d: ConvertCSV's bytes differ from WriteBinaryFile's", n, ds.D(), shardRows)
			}
			opened := openTemp(t, path).Dataset()
			for j := 0; j < opened.D(); j++ {
				for _, v := range []float64{opened.ColMean(j), opened.ColVariance(j), opened.ColMin(j), opened.ColMax(j)} {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("encode digest %s, want %s", got, want)
	}
}
