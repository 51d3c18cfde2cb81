package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// assignBodies are /assign bodies and whether the fast parser takes them.
// The refused ones are valid or invalid JSON outside the shape clients
// send; encoding/json decides them. They seed FuzzAssignBody.
var assignBodies = []struct {
	body string
	fast bool
}{
	{`{"model":"k","rows":[[1,2.5,-3e-7],[0.1,1E+2,-0]]}`, true},
	{" \t\r\n{ \"model\" : \"k\" ,\n \"rows\" : [ [ 1 , 2 ] , [ 3 , 4 ] ] } \n", true},
	{`{"rows":[[1,2]],"model":"k"}`, true},
	{`{"model":"k","rows":[]}`, true},
	{`{"model":"k","rows":[[]]}`, true},
	{`{"model":"","rows":[[1]]}`, true},
	{`{"model":"ключ","rows":[[1]]}`, true},
	{`{"model":"k","rows":[[-0,0.0,1e-400,4.9e-324,1.7976931348623157e308,123456789012345678901234567890]]}`, true},
	{`{"model":"k","rows":[[0.000000000000000000000000000000000001e-2]]}`, true},

	{`{"mod\u0065l":"k","rows":[[1]]}`, false},
	{`{"model":"\u006b","rows":[[1]]}`, false},
	{`{"model":"k\"","rows":[[1]]}`, false},
	{"{\"model\":\"k\x01\",\"rows\":[[1]]}", false},
	{"{\"model\":\"k\xff\",\"rows\":[[1]]}", false},
	{`{"Model":"k","ROWS":[[1]]}`, false},
	{`{"model":"a","rows":[[1]],"model":"k"}`, false},
	{`{"model":"k","rows":[[1]],"rows":[[2,3]]}`, false},
	{`{"model":"k","rows":null}`, false},
	{`{"model":null,"rows":[[1]]}`, false},
	{`{"model":"k","rows":[null,[1]]}`, false},
	{`{"model":"k","rows":[[1,null]]}`, false},
	{`{"model":"k","rows":[[1e400]]}`, false},
	{`{"model":"k","rows":[[-1e400]]}`, false},
	{`{"model":"k","rows":[[01]]}`, false},
	{`{"model":"k","rows":[[.5]]}`, false},
	{`{"model":"k","rows":[[+1]]}`, false},
	{`{"model":"k","rows":[[1e]]}`, false},
	{`{"model":"k","rows":[[1.]]}`, false},
	{`{"model":"k","rows":[[-]]}`, false},
	{`{"model":"k","rows":[[1x]]}`, false},
	{`{"model":"k","rows":[["1"]]}`, false},
	{`{"model":"k","rows":[[NaN]]}`, false},
	{`{"model":"k","rows":[[[1]]]}`, false},
	{`{"model":"k","rows":[1,2]}`, false},
	{`{"model":"k","rows":[[1,]]}`, false},
	{`{"model":"k","rows":[[1]],}`, false},
	{`{"model":"k","rows":[[1]]} x`, false},
	{`{"model":"k","rows":[[1]]}{}`, false},
	{`{"model":"k","rows":[[1]],"extra":1}`, false},
	{`{"model":"k"}`, false},
	{`{"rows":[[1]]}`, false},
	{`{}`, false},
	{`[]`, false},
	{`null`, false},
	{``, false},
	{`{"model":"k","rows":[[1]]`, false},
	{`{"model":"k","rows":[[1,2`, false},
}

func TestParseAssignShape(t *testing.T) {
	for _, tc := range assignBodies {
		if _, _, _, ok := parseAssign([]byte(tc.body), nil, nil); ok != tc.fast {
			t.Errorf("%q: fast parser took it = %v, want %v", tc.body, ok, tc.fast)
		}
	}
}

// FuzzAssignBody is the differential test of DecodeAssign's two paths.
// Whenever the fast parser accepts a body, the encoding/json path accepts it
// too with the same key, the same row lengths and the same bits for every
// value; and on every body DecodeAssign answers what the encoding/json path
// answers, down to the error text.
func FuzzAssignBody(f *testing.F) {
	for _, tc := range assignBodies {
		f.Add([]byte(tc.body))
	}
	f.Add(benchAssignBody(f, 8, 100))
	f.Fuzz(func(t *testing.T, body []byte) {
		wantKey, wantRows, wantLens, wantErr := decodeAssignJSON(body, nil, nil)
		if key, rows, lens, ok := parseAssign(body, nil, nil); ok {
			if wantErr != nil {
				t.Fatalf("fast parser accepted %q, encoding/json refused it: %v", body, wantErr)
			}
			sameAssign(t, body, key, rows, lens, wantKey, wantRows, wantLens)
		}
		// Dirty buffers must not leak into the answer.
		key, rows, lens, err := DecodeAssign(body, []float64{7, 7}, []int{7})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%q: DecodeAssign error %v, encoding/json %v", body, err, wantErr)
		}
		if err == nil {
			sameAssign(t, body, key, rows, lens, wantKey, wantRows, wantLens)
		}
	})
}

func sameAssign(t *testing.T, body []byte, key string, rows []float64, lens []int, wantKey string, wantRows []float64, wantLens []int) {
	t.Helper()
	if key != wantKey || !slices.Equal(lens, wantLens) || len(rows) != len(wantRows) {
		t.Fatalf("%q: got key %q, lengths %v, %d values; encoding/json gives %q, %v, %d",
			body, key, lens, len(rows), wantKey, wantLens, len(wantRows))
	}
	for i := range rows {
		if math.Float64bits(rows[i]) != math.Float64bits(wantRows[i]) {
			t.Fatalf("%q: value %d is %v, encoding/json gives %v", body, i, rows[i], wantRows[i])
		}
	}
}

// benchAssignBody is an /assign body as the benchmark's clients send it: a
// 64-hex-digit key and n rows of d json.Marshal'ed floats.
func benchAssignBody(tb testing.TB, n, d int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64() * 10
		}
	}
	body, err := json.Marshal(struct {
		Model string      `json:"model"`
		Rows  [][]float64 `json:"rows"`
	}{strings.Repeat("0123abcd", 8), rows})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// A null row value is refused, not read as 0; a null row is a row of no
// values.
func TestDecodeAssignRefusesNullValue(t *testing.T) {
	for _, body := range []string{
		`{"model":"k","rows":[[1,null,3],[null,null,null]]}`,
		`{"model":"k","rows":[[1,2],[null]]}`,
	} {
		if _, rows, _, err := DecodeAssign([]byte(body), nil, nil); err == nil {
			t.Errorf("%s: decoded %v, want an error", body, rows)
		}
	}
	_, rows, lens, err := DecodeAssign([]byte(`{"model":"k","rows":[null,[1]]}`), nil, nil)
	if err != nil || !slices.Equal(rows, []float64{1}) || !slices.Equal(lens, []int{0, 1}) {
		t.Errorf("null row: rows %v, lengths %v, err %v; want [1], [0 1], nil", rows, lens, err)
	}
}

// Decoding a client-shaped body into warmed buffers allocates only the key
// string.
func TestDecodeAssignAllocs(t *testing.T) {
	body := benchAssignBody(t, 8, 100)
	_, rows, lens, err := DecodeAssign(body, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(50, func() {
		_, rows, lens, err = DecodeAssign(body, rows, lens)
		if err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Errorf("DecodeAssign allocates %v per call, want at most 1", avg)
	}
	if len(lens) != 8 || len(rows) != 800 {
		t.Fatalf("decoded %d rows, %d values", len(lens), len(rows))
	}
}
