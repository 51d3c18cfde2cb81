package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/model"
)

// This file covers the daemon's robustness surface: per-job deadlines and
// cancellation, panic containment (in fit goroutines and in handlers), the
// draining / admission / body-size gates, and the drain sequence itself.

// slowFitRequest returns a fit whose restart budget is far beyond what any
// test waits for, so a cancel or deadline always lands mid-fit.
func slowFitRequest(rows [][]float64) fitRequest {
	return fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9, Restarts: 100000}, Rows: rows}
}

func TestFitRequestTimeoutDeadline(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	req := slowFitRequest(rows)
	req.Timeout = "1ns"
	resp := postJSON(t, ts.URL+"/fit", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit status %d", resp.StatusCode)
	}
	var j job
	decodeJSON(t, resp, &j)
	done := pollJob(t, ts.URL, j.ID)
	if done.State != "failed" || done.Class != "deadline" {
		t.Fatalf("job = %+v, want failed with class %q", done, "deadline")
	}
	if done.Model != "" {
		t.Error("deadline-failed job carries a model key")
	}
}

// TestFitTimeoutExcludedFromIdentity: the timeout bounds the computation but
// cannot change its output, so it must not split the model cache.
func TestFitTimeoutExcludedFromIdentity(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	req := fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, Rows: rows}
	var j job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", req), &j)
	done := pollJob(t, ts.URL, j.ID)
	if done.State != "done" {
		t.Fatalf("job = %+v", done)
	}

	req.Timeout = "1h"
	var j2 job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", req), &j2)
	if !j2.Cached || j2.Model != done.Model {
		t.Fatalf("same fit with a timeout missed the cache: %+v", j2)
	}

	req.Timeout = "not-a-duration"
	resp := postJSON(t, ts.URL+"/fit", req)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad timeout: status %d, want 400", resp.StatusCode)
	}
}

func TestFitServerDefaultTimeout(t *testing.T) {
	s, ts := testServer(t)
	s.fitTimeout = time.Nanosecond
	_, rows, _ := fitAndModel(t)

	var j job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", slowFitRequest(rows)), &j)
	done := pollJob(t, ts.URL, j.ID)
	if done.State != "failed" || done.Class != "deadline" {
		t.Fatalf("job = %+v, want failed with class %q", done, "deadline")
	}
}

func TestJobCancel(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	var j job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", slowFitRequest(rows)), &j)
	resp := postJSON(t, ts.URL+"/jobs/"+j.ID+"/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel status %d, want 202", resp.StatusCode)
	}
	done := pollJob(t, ts.URL, j.ID)
	if done.State != "failed" || done.Class != "canceled" {
		t.Fatalf("job = %+v, want failed with class %q", done, "canceled")
	}
	if done.Model != "" {
		t.Error("canceled job carries a model key")
	}

	// The job is finished now: a second cancel is a conflict, an unknown
	// job a 404.
	resp = postJSON(t, ts.URL+"/jobs/"+j.ID+"/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished job: status %d, want 409", resp.StatusCode)
	}
	resp = postJSON(t, ts.URL+"/jobs/nope/cancel", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestFitPanicBecomesFailedJob injects a panic into a restart via the fault
// registry: the daemon must contain it into a failed job with class "panic"
// and keep answering requests.
func TestFitPanicBecomesFailedJob(t *testing.T) {
	_, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	faults.Enable(faults.Plan{Site: faults.SiteRestartLaunch, Mode: faults.ModePanic})
	t.Cleanup(faults.Disable)
	var j job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, Rows: rows}), &j)
	done := pollJob(t, ts.URL, j.ID)
	faults.Disable()
	if done.State != "failed" || done.Class != "panic" {
		t.Fatalf("job = %+v, want failed with class %q", done, "panic")
	}

	// The daemon survived: the same fit now completes.
	var j2 job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, Rows: rows}), &j2)
	if done := pollJob(t, ts.URL, j2.ID); done.State != "done" {
		t.Fatalf("post-panic fit = %+v", done)
	}
}

// panicReader makes any handler that reads the request body panic, to drive
// the recovery middleware without a test-only route.
type panicReader struct{}

func (panicReader) Read([]byte) (int, error) { panic("body bomb") }

func TestHandlerPanicAnswers500WithRequestID(t *testing.T) {
	s, _ := testServer(t)
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/fit", panicReader{})
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	id := rec.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("no X-Request-Id on panicking request")
	}
	if !strings.Contains(rec.Body.String(), id) {
		t.Errorf("500 body %q does not name request id %q", rec.Body.String(), id)
	}
}

func TestFitDraining503(t *testing.T) {
	s, ts := testServer(t)
	_, rows, _ := fitAndModel(t)
	s.draining.Store(true)

	resp := postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2}, Rows: rows})
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fit while draining: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(buf.String(), "draining") {
		t.Errorf("503 body %q lacks the typed %q marker", buf.String(), "draining")
	}
	// Reads stay up during a drain.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d", hr.StatusCode)
	}
}

func TestFitQueueFull429(t *testing.T) {
	s, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	// Warm the cache so a registry hit can be checked against a full queue.
	var warm job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, Rows: rows}), &warm)
	if done := pollJob(t, ts.URL, warm.ID); done.State != "done" {
		t.Fatalf("warm fit = %+v", done)
	}

	s.maxJobs = 1
	var slow job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", slowFitRequest(rows)), &slow)

	resp := postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 77}, Rows: rows})
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fit beyond -max-jobs: status %d, want 429", resp.StatusCode)
	}

	// A cache hit costs no computation, so it passes even with the queue full.
	var hit job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 9}, Rows: rows}), &hit)
	if !hit.Cached {
		t.Fatalf("cache hit rejected while queue full: %+v", hit)
	}

	resp = postJSON(t, ts.URL+"/jobs/"+slow.ID+"/cancel", nil)
	resp.Body.Close()
	if done := pollJob(t, ts.URL, slow.ID); done.Class != "canceled" {
		t.Fatalf("slow job = %+v", done)
	}

	// The canceled job released its slot.
	var next job
	decodeJSON(t, postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 78}, Rows: rows}), &next)
	if done := pollJob(t, ts.URL, next.ID); done.State != "done" {
		t.Fatalf("fit after slot release = %+v", done)
	}
}

func TestBodyCap413(t *testing.T) {
	s, ts := testServer(t)
	m, rows, csv := fitAndModel(t)
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	key, err := s.register(m, enc)
	if err != nil {
		t.Fatal(err)
	}
	s.maxBody = 256

	resp := postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2}, Rows: rows})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized fit: status %d, want 413", resp.StatusCode)
	}

	resp = postJSON(t, ts.URL+"/assign", assignRequest{Model: "any", Rows: rows})
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized assign: status %d, want 413", resp.StatusCode)
	}

	resp2, err := http.Post(ts.URL+"/models", "application/octet-stream",
		strings.NewReader(strings.Repeat("x", 1024)))
	if err != nil {
		t.Fatal(err)
	}
	resp = resp2
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized model upload: status %d, want 413", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/assign/csv?model="+key, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized csv assign: status %d, want 413", resp.StatusCode)
	}
}

// fakeShutdown stands in for http.Server in drain tests: Shutdown succeeds
// immediately (there is no listener to close).
type fakeShutdown struct{ err error }

func (f fakeShutdown) Shutdown(context.Context) error { return f.err }

func TestDrainClean(t *testing.T) {
	s := newServer()
	if err := drain(fakeShutdown{}, s, time.Second); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	if !s.draining.Load() {
		t.Error("drain did not flip the draining gate")
	}
}

func TestDrainTimeoutWithRunningFit(t *testing.T) {
	s := newServer()
	s.fits.Add(1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-release
		s.fits.Done()
	}()
	err := drain(fakeShutdown{}, s, 50*time.Millisecond)
	if !errors.Is(err, errDrainTimeout) {
		t.Fatalf("drain err = %v, want errDrainTimeout", err)
	}
	close(release)
	wg.Wait()
}

// TestDrainWaitsForQueuedJobs: a drain with budget left must see real
// submitted fit jobs through to completion before returning.
func TestDrainWaitsForQueuedJobs(t *testing.T) {
	s, ts := testServer(t)
	_, rows, _ := fitAndModel(t)

	var jobs []string
	for seed := int64(30); seed < 33; seed++ {
		var j job
		decodeJSON(t, postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: seed}, Rows: rows}), &j)
		jobs = append(jobs, j.ID)
	}
	if err := drain(fakeShutdown{}, s, 30*time.Second); err != nil {
		t.Fatalf("drain with queued jobs: %v", err)
	}
	for _, id := range jobs {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		if j.State != "done" {
			t.Errorf("job %s = %+v after drain, want done", id, j)
		}
	}
	// And the drained server refuses new fits.
	resp := postJSON(t, ts.URL+"/fit", fitRequest{Fit: model.Fit{Algo: "sspc", K: 2, Seed: 99}, Rows: rows})
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("fit after drain: status %d, want 503", resp.StatusCode)
	}
}

// stalledWriter is a ResponseWriter for a client that stopped reading: Write
// blocks until release is closed. writing is closed by the first Write.
type stalledWriter struct {
	header  http.Header
	once    sync.Once
	writing chan struct{}
	release chan struct{}
}

func (w *stalledWriter) Header() http.Header { return w.header }
func (w *stalledWriter) WriteHeader(int)     {}
func (w *stalledWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.writing) })
	<-w.release
	return len(p), nil
}

// TestStalledClientDoesNotBlockRegistry: a client that stops reading a JSON
// response must not stall the daemon. While a handler is stuck writing to
// it, a registry lookup — the first step of every /assign — must return.
func TestStalledClientDoesNotBlockRegistry(t *testing.T) {
	m, rows, _ := fitAndModel(t)
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	s := newServer()
	key, err := s.register(m, enc)
	if err != nil {
		t.Fatal(err)
	}
	s.jobs["job-1"] = &job{ID: "job-1", State: "done", Model: key}
	assignBody, err := json.Marshal(assignRequest{Model: key, Rows: rows[:4]})
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]func() *http.Request{
		"assign": func() *http.Request {
			return httptest.NewRequest(http.MethodPost, "/assign", bytes.NewReader(assignBody))
		},
		"job":    func() *http.Request { return httptest.NewRequest(http.MethodGet, "/jobs/job-1", nil) },
		"models": func() *http.Request { return httptest.NewRequest(http.MethodGet, "/models", nil) },
	} {
		t.Run(name, func(t *testing.T) {
			w := &stalledWriter{header: http.Header{}, writing: make(chan struct{}), release: make(chan struct{})}
			served := make(chan struct{})
			go func() {
				defer close(served)
				s.ServeHTTP(w, req())
			}()
			defer func() {
				close(w.release)
				<-served
			}()
			select {
			case <-w.writing:
			case <-time.After(2 * time.Second):
				t.Fatal("handler never wrote its response")
			}
			looked := make(chan bool, 1)
			go func() {
				_, ok := s.lookup(key)
				looked <- ok
			}()
			select {
			case ok := <-looked:
				if !ok {
					t.Fatalf("lookup(%q) missed a registered model", key)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("registry lookup blocked while a stalled client held a response")
			}
		})
	}
}
