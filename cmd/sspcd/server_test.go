package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/model"
	"repro/internal/synth"
)

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	s := newServer()
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// fitAndModel runs a small in-process SSPC fit and returns its model plus
// the training rows (as [][]float64 and CSV text).
func fitAndModel(t *testing.T) (*model.Model, [][]float64, string) {
	t.Helper()
	gt, err := synth.Generate(synth.Config{N: 120, D: 12, K: 2, AvgDims: 4, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(2)
	opts.Seed = 9
	res, err := core.RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.FromResult("sspc", "test", 9, model.DatasetHash(gt.Data), gt.Data.D(), res)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, gt.Data.N())
	var csv strings.Builder
	for x := 0; x < gt.Data.N(); x++ {
		rows[x] = append([]float64(nil), gt.Data.Row(x)...)
		for j, v := range rows[x] {
			if j > 0 {
				csv.WriteByte(',')
			}
			fmt.Fprintf(&csv, "%g", v)
		}
		csv.WriteByte('\n')
	}
	return m, rows, csv.String()
}

// assignRequest is a POST /assign body, as clients send it.
type assignRequest struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := testServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestUploadListDownloadAssign(t *testing.T) {
	_, ts := testServer(t)
	m, rows, _ := fitAndModel(t)
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/models", "application/octet-stream", bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	var up map[string]string
	decodeJSON(t, resp, &up)
	if up["key"] != m.Key() {
		t.Fatalf("upload key %q, want %q", up["key"], m.Key())
	}

	resp, err = http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var list []modelSummary
	decodeJSON(t, resp, &list)
	if len(list) != 1 || list[0].Key != m.Key() || list[0].Algo != "sspc" {
		t.Fatalf("model list = %+v", list)
	}

	resp, err = http.Get(ts.URL + "/models/" + m.Key())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !bytes.Equal(buf.Bytes(), enc) {
		t.Fatal("downloaded bytes differ from uploaded")
	}

	// The serve-path identity: /assign over the training rows returns the
	// fit's own assignments.
	resp = postJSON(t, ts.URL+"/assign", assignRequest{Model: m.Key(), Rows: rows})
	var got map[string][]int
	decodeJSON(t, resp, &got)
	if len(got["assignments"]) != len(m.Assignments) {
		t.Fatalf("%d assignments, want %d", len(got["assignments"]), len(m.Assignments))
	}
	for x, c := range got["assignments"] {
		if c != m.Assignments[x] {
			t.Fatalf("object %d: served %d, fit assigned %d", x, c, m.Assignments[x])
		}
	}
}

// TestUploadServesCanonicalEncoding: POST /models accepts any spelling of a
// valid model body, and GET /models/{key} serves the model's canonical
// encoding, the bytes `sspc -save` writes, not the uploaded bytes. The
// upload spells "algo" as "ALGO" (encoding/json matches keys without regard
// to case) behind two leading spaces, under a header fixed up for the new
// length and CRC.
func TestUploadServesCanonicalEncoding(t *testing.T) {
	_, ts := testServer(t)
	m, _, _ := fitAndModel(t)
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// The header is 8 magic bytes, a 4-byte version, then the body's
	// length (8 bytes) and CRC-32 (4 bytes), big-endian.
	const prefix, header = 12, 24
	body := append([]byte("  "), bytes.Replace(enc[header:], []byte(`"algo"`), []byte(`"ALGO"`), 1)...)
	upload := append([]byte(nil), enc[:prefix]...)
	upload = binary.BigEndian.AppendUint64(upload, uint64(len(body)))
	upload = binary.BigEndian.AppendUint32(upload, crc32.ChecksumIEEE(body))
	upload = append(upload, body...)
	if bytes.Equal(upload, enc) {
		t.Fatal("fixture: the upload is already the canonical encoding")
	}

	resp, err := http.Post(ts.URL+"/models", "application/octet-stream", bytes.NewReader(upload))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("upload status %d, want 200", resp.StatusCode)
	}
	var up map[string]string
	decodeJSON(t, resp, &up)
	if up["key"] != m.Key() {
		t.Fatalf("upload key %q, want %q", up["key"], m.Key())
	}
	if got := getBody(t, ts.URL+"/models/"+m.Key()); !bytes.Equal(got, enc) {
		t.Errorf("GET /models/{key} served %d bytes that are not the model's encoding (%d bytes)", len(got), len(enc))
	}
}

func TestAssignCSVMatchesCLIFormat(t *testing.T) {
	s, ts := testServer(t)
	m, _, csv := fitAndModel(t)
	if _, err := s.register(m); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/assign/csv?model="+m.Key(), "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	var want strings.Builder
	for x, c := range m.Assignments {
		fmt.Fprintf(&want, "%d %d\n", x, c)
	}
	if buf.String() != want.String() {
		t.Fatalf("/assign/csv output differs from CLI per-object format:\n%s\nwant:\n%s", buf.String(), want.String())
	}
}

func pollJob(t *testing.T, url, id string) *job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j job
		decodeJSON(t, resp, &j)
		if j.State != "running" {
			return &j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 30s", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestFitPollAssignAndCache(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	req := fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, Rows: rows}
	resp := postJSON(t, ts.URL+"/fit", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit status %d", resp.StatusCode)
	}
	var j job
	decodeJSON(t, resp, &j)
	done := pollJob(t, ts.URL, j.ID)
	if done.State != "done" || done.Model == "" {
		t.Fatalf("job = %+v", done)
	}
	if done.Iterations == 0 {
		t.Error("trace progress never reached the job")
	}

	// Same request again: the registry answers without refitting.
	resp = postJSON(t, ts.URL+"/fit", req)
	var j2 job
	decodeJSON(t, resp, &j2)
	if !j2.Cached || j2.State != "done" || j2.Model != done.Model {
		t.Fatalf("second fit not served from cache: %+v", j2)
	}
	// A different seed is a different model identity.
	req.Seed = 10
	resp = postJSON(t, ts.URL+"/fit", req)
	var j3 job
	decodeJSON(t, resp, &j3)
	if j3.Cached {
		t.Fatal("different seed must not hit the cache")
	}
	pollJob(t, ts.URL, j3.ID)

	// The fitted model serves assignments over its own training rows.
	resp = postJSON(t, ts.URL+"/assign", assignRequest{Model: done.Model, Rows: rows})
	var got map[string][]int
	decodeJSON(t, resp, &got)
	if len(got["assignments"]) != len(rows) {
		t.Fatalf("%d assignments for %d rows", len(got["assignments"]), len(rows))
	}
}

// TestFitOutOfRangeMFails: an m the body spells reaches core unchanged, so
// an out-of-range value, 0 included, fails the job with core's error
// instead of silently fitting the default m under its own registry key.
func TestFitOutOfRangeMFails(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)
	for _, m := range []float64{-1, 0} {
		resp := postJSON(t, ts.URL+"/fit", map[string]any{"algo": "sspc", "k": 2, "rows": rows, "seed": 9, "m": m})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("m=%v: fit status %d", m, resp.StatusCode)
		}
		var j job
		decodeJSON(t, resp, &j)
		done := pollJob(t, ts.URL, j.ID)
		if done.State != "failed" || done.Model != "" || !strings.Contains(done.Error, fmt.Sprintf("m = %v ", m)) {
			t.Fatalf("m=%v job = %+v, want a failed job carrying core's range error", m, done)
		}
	}
}

// TestFitSpellingsShareOneModel: spellings of one fit — fields omitted or
// given their default values — make one registry key, so the daemon computes
// the fit once and answers every other spelling from its registry. The same
// holds for scheme p, whose omitted p is DefaultFit's.
func TestFitSpellingsShareOneModel(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)
	post := func(extra map[string]any) job {
		t.Helper()
		body := map[string]any{"algo": "sspc", "k": 2, "rows": rows, "seed": 9}
		for k, v := range extra {
			body[k] = v
		}
		resp := postJSON(t, ts.URL+"/fit", body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%v: fit status %d", extra, resp.StatusCode)
		}
		var j job
		decodeJSON(t, resp, &j)
		return j
	}
	for _, spellings := range [][]map[string]any{
		{
			{},
			{"m": 0.5},
			{"normalize": "none"},
			{"restarts": 1},
			{"scheme": "m", "m": 0.5, "normalize": "none", "restarts": 1},
		},
		{{"scheme": "p"}, {"scheme": "p", "p": 0.1}},
	} {
		first := pollJob(t, ts.URL, post(spellings[0]).ID)
		if first.State != "done" {
			t.Fatalf("%v: job = %+v", spellings[0], first)
		}
		for _, extra := range spellings[1:] {
			if j := post(extra); !j.Cached || j.Model != first.Model {
				t.Errorf("%v: job = %+v, want a cache hit on %s", extra, j, first.Model)
			}
		}
	}
	var list []modelSummary
	resp, err := http.Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	decodeJSON(t, resp, &list)
	if len(list) != 2 {
		t.Errorf("registry holds %d models, want one per fit (2)", len(list))
	}
}

// TestFitDataFile covers the out-of-core fit path: the dataset arrives as a
// .sspcb file path instead of inline rows, the registry hash comes from the
// file's header fingerprint, and — because that fingerprint is invariant
// under re-sharding — a re-fit from a differently-sharded copy of the same
// data is a cache hit.
func TestFitDataFile(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)
	ds, err := dataset.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "train.sspcb")
	if _, err := binfmt.WriteBinaryFile(path, ds, 32); err != nil {
		t.Fatal(err)
	}

	req := fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, DataFile: path}
	resp := postJSON(t, ts.URL+"/fit", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit status %d", resp.StatusCode)
	}
	var j job
	decodeJSON(t, resp, &j)
	done := pollJob(t, ts.URL, j.ID)
	if done.State != "done" || done.Model == "" {
		t.Fatalf("data_file job = %+v", done)
	}

	// Same data re-sharded under a different name: identical registry key,
	// answered from cache without reopening a fit.
	reshard := filepath.Join(dir, "train-resharded.sspcb")
	if _, err := binfmt.WriteBinaryFile(reshard, ds, 7); err != nil {
		t.Fatal(err)
	}
	req.DataFile = reshard
	resp = postJSON(t, ts.URL+"/fit", req)
	var j2 job
	decodeJSON(t, resp, &j2)
	if !j2.Cached || j2.State != "done" || j2.Model != done.Model {
		t.Fatalf("re-sharded fit not served from cache: %+v", j2)
	}

	// An inline-rows fit of the same matrix is a distinct identity: the
	// in-memory hash is a full scan, the file hash is the header checksum.
	resp = postJSON(t, ts.URL+"/assign", assignRequest{Model: done.Model, Rows: rows})
	var got map[string][]int
	decodeJSON(t, resp, &got)
	if len(got["assignments"]) != len(rows) {
		t.Fatalf("%d assignments for %d rows", len(got["assignments"]), len(rows))
	}

	for name, bad := range map[string]fitRequest{
		"data_file plus csv":       {Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, DataFile: path, CSV: "1,2\n"},
		"data_file plus rows":      {Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, DataFile: path, Rows: rows},
		"data_file plus normalize": {Fit: model.Fit{Algo: "sspc", K: 2, Normalize: "zscore", Seed: 9}, DataFile: path},
		"data_file missing":        {Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, DataFile: filepath.Join(dir, "nope.sspcb")},
	} {
		resp := postJSON(t, ts.URL+"/fit", bad)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	_, ts := testServer(t)
	for _, tc := range []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"unknown route", func() (*http.Response, error) {
			return http.Get(ts.URL + "/nope")
		}, http.StatusNotFound},
		{"bad fit body", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"fit without data", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json", strings.NewReader(`{"algo":"sspc","k":2}`))
		}, http.StatusBadRequest},
		{"unknown fit field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json", strings.NewReader(`{"algo":"sspc","k":2,"bogus":1}`))
		}, http.StatusBadRequest},
		{"CLI-only fit field", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json",
				strings.NewReader(`{"algo":"sspc","k":2,"validate":true,"rows":[[1,2],[3,4],[5,6],[7,8]]}`))
		}, http.StatusBadRequest},
		{"unknown algorithm", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json",
				strings.NewReader(`{"algo":"harp","k":2,"rows":[[1,2],[3,4],[5,6],[7,8]]}`))
		}, http.StatusBadRequest},
		{"trailing data after the fit request", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json",
				strings.NewReader(`{"algo":"sspc","k":2,"rows":[[1,2],[3,4],[5,6],[7,8]]} trailing garbage`))
		}, http.StatusBadRequest},
		{"second value after the fit request", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json",
				strings.NewReader(`{"algo":"sspc","k":2,"rows":[[1,2],[3,4],[5,6],[7,8]]} {}`))
		}, http.StatusBadRequest},
		{"unknown threshold scheme", func() (*http.Response, error) {
			return http.Post(ts.URL+"/fit", "application/json",
				strings.NewReader(`{"algo":"sspc","k":2,"scheme":"bogus","rows":[[1,2],[3,4],[5,6],[7,8]]}`))
		}, http.StatusBadRequest},
		{"bad model upload", func() (*http.Response, error) {
			return http.Post(ts.URL+"/models", "application/octet-stream", strings.NewReader("not a model"))
		}, http.StatusBadRequest},
		{"unknown model download", func() (*http.Response, error) {
			return http.Get(ts.URL + "/models/nope")
		}, http.StatusNotFound},
		{"assign unknown model", func() (*http.Response, error) {
			return http.Post(ts.URL+"/assign", "application/json",
				strings.NewReader(`{"model":"nope","rows":[[1]]}`))
		}, http.StatusNotFound},
		{"assign csv unknown model", func() (*http.Response, error) {
			return http.Post(ts.URL+"/assign/csv?model=nope", "text/csv", strings.NewReader("1,2\n"))
		}, http.StatusNotFound},
		{"job not found", func() (*http.Response, error) {
			return http.Get(ts.URL + "/jobs/nope")
		}, http.StatusNotFound},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

func TestAssignShapeErrors(t *testing.T) {
	s, ts := testServer(t)
	m, _, _ := fitAndModel(t)
	if _, err := s.register(m); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/assign", assignRequest{Model: m.Key(), Rows: [][]float64{{1, 2}}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short row: status %d, want 400", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/assign/csv?model="+m.Key(), "text/csv", strings.NewReader("1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("narrow csv: status %d, want 400", resp.StatusCode)
	}
}

// serveAssign sends body to POST /assign and returns the status and answer.
func serveAssign(s *server, body string) (int, string) {
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/assign", strings.NewReader(body)))
	return w.Code, w.Body.String()
}

// registeredServer is a server holding fitAndModel's model.
func registeredServer(t *testing.T) (*server, string, [][]float64) {
	t.Helper()
	s := newServer()
	m, rows, _ := fitAndModel(t)
	key, err := s.register(m)
	if err != nil {
		t.Fatal(err)
	}
	return s, key, rows
}

// TestAssignParsePathsAgree: spelled as clients send it, a request takes
// the fast body parser; spelled with an escaped, case-folded or repeated
// key, or with bytes after the object, it takes encoding/json. Every
// spelling gets the same status and the same answer.
func TestAssignParsePathsAgree(t *testing.T) {
	s, key, rows := registeredServer(t)
	for _, req := range []struct {
		name  string
		model string
		rows  [][]float64
		code  int
	}{
		{"five rows", key, rows[:5], http.StatusOK},
		{"no rows", key, [][]float64{}, http.StatusOK},
		{"unknown model", "nope", rows[:1], http.StatusNotFound},
		{"short second row", key, [][]float64{rows[0], rows[1][:3]}, http.StatusBadRequest},
	} {
		js, err := json.Marshal(req.rows)
		if err != nil {
			t.Fatal(err)
		}
		plain := fmt.Sprintf(`{"model":%q,"rows":%s}`, req.model, js)
		code, want := serveAssign(s, plain)
		if code != req.code {
			t.Fatalf("%s: status %d, want %d: %s", req.name, code, req.code, want)
		}
		for _, body := range []string{
			fmt.Sprintf(" {\n \"rows\" : %s ,\t\"model\" : %q } ", js, req.model),
			fmt.Sprintf(`{"mod\u0065l":%q,"rows":%s}`, req.model, js),
			fmt.Sprintf(`{"MODEL":%q,"Rows":%s}`, req.model, js),
			fmt.Sprintf(`{"model":"other","rows":[[1]],"model":%q,"rows":%s}`, req.model, js),
			plain + ` {"trailing":1}`,
		} {
			if c, got := serveAssign(s, body); c != code || got != want {
				t.Errorf("%s: %s answers %d %q, the plain body %d %q", req.name, body, c, got, code, want)
			}
		}
	}
}

// TestAssignRefusesNullValue: a row of the model's width with one null
// value answers 400, not the row scored with a 0 in its place.
func TestAssignRefusesNullValue(t *testing.T) {
	s, key, rows := registeredServer(t)
	js, err := json.Marshal(rows[0])
	if err != nil {
		t.Fatal(err)
	}
	values := strings.Split(strings.Trim(string(js), "[]"), ",")
	values[1] = "null"
	body := fmt.Sprintf(`{"model":%q,"rows":[[%s]]}`, key, strings.Join(values, ","))
	if code, got := serveAssign(s, body); code != http.StatusBadRequest || !strings.Contains(got, "null") {
		t.Errorf("null value: %d %q, want 400 naming the null", code, got)
	}
}

// TestEmptyAssignAnswersEmptyList: a batch of zero rows answers [] whether
// the pooled buffers are new or have served a batch before.
func TestEmptyAssignAnswersEmptyList(t *testing.T) {
	s, key, rows := registeredServer(t)
	const want = "{\"assignments\":[]}\n"
	empty := fmt.Sprintf(`{"model":%q,"rows":[]}`, key)
	if code, got := serveAssign(s, empty); code != http.StatusOK || got != want {
		t.Errorf("first empty batch: %d %q, want 200 %q", code, got, want)
	}
	js, err := json.Marshal(rows[:2])
	if err != nil {
		t.Fatal(err)
	}
	if code, got := serveAssign(s, fmt.Sprintf(`{"model":%q,"rows":%s}`, key, js)); code != http.StatusOK {
		t.Fatalf("two rows: %d %q", code, got)
	}
	for _, body := range []string{empty, fmt.Sprintf(`{"model":%q,"rows":null}`, key)} {
		if code, got := serveAssign(s, body); code != http.StatusOK || got != want {
			t.Errorf("%s after a batch: %d %q, want 200 %q", body, code, got, want)
		}
	}
}

func TestPreloadModelFile(t *testing.T) {
	s, _ := testServer(t)
	m, _, _ := fitAndModel(t)
	path := t.TempDir() + "/m.sspcm"
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	key, err := s.loadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if key != m.Key() {
		t.Fatalf("preload key %q, want %q", key, m.Key())
	}
	if _, err := s.loadModelFile("/nonexistent.sspcm"); err == nil {
		t.Error("missing preload file should error")
	}
}

// TestRegistryHoldsWhatItServes: a registered model costs the daemon its
// encoded bytes and its serving assigner, not the decoded model, whose
// training assignments alone are n·8 bytes. Registering 200 fitted models
// with n=4000 the way a finished fit job does (FromResult, register) must
// grow the live heap by less than twice the encoded size per model, and
// /models and downloads must still answer byte for byte. The test keeps
// only a digest of each expected encoding, so the heap it measures holds
// the registry's copy alone.
func TestRegistryHoldsWhatItServes(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 4000, D: 100, K: 5, AvgDims: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions(5)
	opts.Seed = 3
	res, err := core.RunContext(context.Background(), gt.Data, opts)
	if err != nil {
		t.Fatal(err)
	}
	hash := model.DatasetHash(gt.Data)
	const models = 200
	s := newServer()
	want := make([]modelSummary, 0, models)
	sums := make(map[string][sha256.Size]byte, models)
	var encBytes int

	var m0, m1 runtime.MemStats
	settleHeap(&m0)
	for seed := int64(0); seed < models; seed++ {
		m, err := model.FromResult("sspc", "test", seed, hash, gt.Data.D(), res)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		key, err := s.register(m)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, modelSummary{Key: key, Algo: m.Algo, K: m.K, D: m.D, N: m.N, Score: m.Score})
		sums[key] = sha256.Sum256(enc)
		encBytes += len(enc)
	}
	settleHeap(&m1)
	runtime.KeepAlive(gt) // the fixture was live at m0; keep it out of the difference
	runtime.KeepAlive(res)
	perModel := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / models
	perEnc := float64(encBytes) / models
	if perModel >= 2*perEnc {
		t.Errorf("registry heap per model = %.0f B, want < 2 × %.0f encoded bytes", perModel, perEnc)
	}
	t.Logf("registry heap per model = %.0f B; encoded size %.0f B", perModel, perEnc)

	ts := httptest.NewServer(s)
	defer ts.Close()
	sort.Slice(want, func(i, j int) bool { return want[i].Key < want[j].Key })
	var listing bytes.Buffer
	writeJSON(&listing, want)
	if got := getBody(t, ts.URL+"/models"); !bytes.Equal(got, listing.Bytes()) {
		t.Errorf("/models = %s, want %s", got, listing.Bytes())
	}
	for key, sum := range sums {
		if got := getBody(t, ts.URL+"/models/"+key); sha256.Sum256(got) != sum {
			t.Fatalf("download of %s differs from the model's encoding", key)
		}
	}
}

// settleHeap reads the live heap after two collections: the second frees
// what sync.Pool caches kept alive through the first.
func settleHeap(m *runtime.MemStats) {
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(m)
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
