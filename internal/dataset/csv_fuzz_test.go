package dataset

import (
	"math"
	"strings"
	"testing"
)

// The CSV loaders are the CLIs' untrusted-input surface: cmd/sspc and
// cmd/datagen feed them whatever file the user points at. The fuzz targets
// pin the loader contract on arbitrary bytes: never panic, and on success
// return a rectangular, finite dataset (FromRows must have rejected ragged
// rows and NaN/Inf fields — strconv.ParseFloat happily parses "NaN" and
// "Inf", so the finiteness leg is load-bearing, not theoretical).

// fuzzSeedInputs are the hand-written corpus: well-formed data plus every
// malformed shape the loaders must reject gracefully — ragged rows, NaN/Inf
// spellings, overflow-to-Inf, empty and quote-mangled input.
var fuzzSeedInputs = []string{
	"1,2,3\n4,5,6\n",
	"a,b,c\n1,2,3\n", // header row of labels
	"1,2\n3\n",       // ragged: short row
	"1,2\n3,4,5\n",   // ragged: long row
	"NaN,1\n2,3\n",
	"Inf,1\n2,3\n",
	"-Inf,1\n2,3\n",
	"nan,inf\n",
	"1e309,0\n", // overflows float64 to +Inf
	"",
	"\n",
	",\n",
	"1,2,\n",
	"\"1\",\"2\"\n",
	"\"unterminated,2\n",
	"1;2\n",
	"0x1p-3,1\n",
	"1,2\n3,x\n",
	"-1,-2.5e-3\n0,4\n",
}

// FuzzReadCSV: ReadCSV(arbitrary bytes) must either fail or produce a
// non-empty rectangular dataset of finite values. (binfmt.FuzzConvertCSV
// holds the disk tier's ingestion to the same accept/reject decisions and
// values.)
func FuzzReadCSV(f *testing.F) {
	for _, s := range fuzzSeedInputs {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Fuzz(func(t *testing.T, input string, header bool) {
		ds, err := ReadCSV(strings.NewReader(input), header)
		if err != nil {
			return
		}
		requireFiniteRectangular(t, ds)
	})
}

// FuzzReadLabeledCSV: same contract, plus exactly one integer label per row.
func FuzzReadLabeledCSV(f *testing.F) {
	for _, s := range fuzzSeedInputs {
		f.Add(s, false)
		f.Add(s, true)
	}
	f.Add("1,2,0\n3,4,1\n", false)
	f.Add("1,2,-1\n3,4,7\n", false)
	f.Add("1,2,0.5\n", false) // non-integer label
	f.Add("5\n", false)       // too short for a label column
	f.Fuzz(func(t *testing.T, input string, header bool) {
		ds, labels, err := ReadLabeledCSV(strings.NewReader(input), header)
		if err != nil {
			return
		}
		requireFiniteRectangular(t, ds)
		if len(labels) != ds.N() {
			t.Fatalf("%d labels for %d rows", len(labels), ds.N())
		}
	})
}

// requireFiniteRectangular asserts the invariants every successfully loaded
// dataset must satisfy before the algorithms may touch it.
func requireFiniteRectangular(t *testing.T, ds *Dataset) {
	t.Helper()
	if ds == nil {
		t.Fatal("nil dataset without error")
	}
	n, d := ds.N(), ds.D()
	if n <= 0 || d <= 0 {
		t.Fatalf("degenerate shape %dx%d accepted", n, d)
	}
	for i := 0; i < n; i++ {
		row := ds.Row(i)
		if len(row) != d {
			t.Fatalf("row %d has %d values, want %d", i, len(row), d)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite value %v at (%d,%d) survived the loader", v, i, j)
			}
		}
	}
}
