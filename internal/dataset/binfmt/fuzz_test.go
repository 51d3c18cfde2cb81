package binfmt

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// fuzzSeed encodes a small dataset to canonical bytes for the corpus.
func fuzzSeed(f *testing.F, rows [][]float64, shardRows int) []byte {
	ds, err := dataset.FromRows(rows)
	if err != nil {
		f.Fatal(err)
	}
	return encoded(f, ds, shardRows)
}

// FuzzOpenBinary throws arbitrary bytes at the full open path — header and
// extent decoding, mapping, every verification layer — and holds it to the
// reader's contract: it must never panic, and when it does accept a file the
// file must be exactly a canonical encoding, i.e. re-encoding the decoded
// dataset at the declared shard granularity reproduces the input bytes and
// every decoded value is finite.
func FuzzOpenBinary(f *testing.F) {
	seeds := [][]byte{
		fuzzSeed(f, [][]float64{{1.5, -2.25}, {0, 3e7}, {-0.5, 0.125}}, 2),
		fuzzSeed(f, [][]float64{{42}}, 1),
		fuzzSeed(f, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}, 3),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])                            // truncation
		f.Add(append(append([]byte(nil), s...), 0x00)) // trailing byte
		mut := append([]byte(nil), s...)
		mut[len(mut)-3] ^= 0x10 // payload flip
		f.Add(mut)
	}
	f.Add([]byte(Magic))
	f.Add([]byte("not a dataset"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.sspcb")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenBinary(path)
		if err != nil {
			if fl != nil {
				t.Fatal("OpenBinary returned both a file and an error")
			}
			return
		}
		defer fl.Close()
		ds := fl.Dataset()
		if ds.N() != fl.n || ds.D() != fl.d {
			t.Fatalf("dataset shape %dx%d disagrees with file %dx%d", ds.N(), ds.D(), fl.n, fl.d)
		}
		for i := 0; i < ds.N(); i++ {
			for _, v := range ds.Row(i) {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted file yielded non-finite value in row %d", i)
				}
			}
		}
		rePath := path + ".re"
		if _, err := WriteBinaryFile(rePath, ds, fl.shardRows); err != nil {
			t.Fatalf("re-encode of accepted file failed: %v", err)
		}
		re, err := os.ReadFile(rePath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, data) {
			t.Fatal("accepted file is not a canonical encoding (re-encode differs)")
		}
	})
}

// FuzzConvertCSV holds the disk tier's CSV ingestion to dataset.ReadCSV:
// converting arbitrary bytes as one segment and opening the result must
// accept exactly the inputs ReadCSV accepts, with bit-identical values.
func FuzzConvertCSV(f *testing.F) {
	for _, s := range []string{
		"1,2,3\n4,5,6\n",
		"a,b,c\n1,2,3\n",
		"1,2\n3\n",
		"1,2\n3,4,5\n",
		"NaN,1\n2,3\n",
		"-Inf,1\n2,3\n",
		"1e309,0\n",
		"",
		",\n",
		"\"1\",\"2\"\n",
		"\"unterminated,2\n",
		"0x1p-3,1\n",
		"-0,-2.5e-3\n0,4\n5,6\n",
	} {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, input string, header bool) {
		ds, err := dataset.ReadCSV(strings.NewReader(input), header)
		dir := t.TempDir()
		seg := filepath.Join(dir, "seg.csv")
		if werr := os.WriteFile(seg, []byte(input), 0o644); werr != nil {
			t.Fatal(werr)
		}
		out := filepath.Join(dir, "out.sspcb")
		_, cerr := ConvertCSV(out, []string{seg}, ConvertOptions{ShardRows: 2, Header: header})
		if (err == nil) != (cerr == nil) {
			t.Fatalf("loaders disagree: ReadCSV err = %v, ConvertCSV err = %v", err, cerr)
		}
		if err != nil {
			return
		}
		fl, err := OpenBinary(out)
		if err != nil {
			t.Fatalf("OpenBinary of a converted file: %v", err)
		}
		defer fl.Close()
		got := fl.Dataset()
		if got.N() != ds.N() || got.D() != ds.D() {
			t.Fatalf("converted shape %dx%d, ReadCSV %dx%d", got.N(), got.D(), ds.N(), ds.D())
		}
		for i := 0; i < ds.N(); i++ {
			for j := 0; j < ds.D(); j++ {
				if math.Float64bits(got.At(i, j)) != math.Float64bits(ds.At(i, j)) {
					t.Fatalf("value (%d,%d): converted %v, ReadCSV %v", i, j, got.At(i, j), ds.At(i, j))
				}
			}
		}
	})
}
