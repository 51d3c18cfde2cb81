package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/engine"
	"repro/internal/model"
)

// entry is one registered model, holding only what the daemon serves: its
// GET /models row, its encoded bytes (served back on download), and the
// prebuilt serving assigner shared by every /assign request. The decoded
// model is dropped after registration; its training assignments alone cost
// n·8 bytes, and nothing reads them.
type entry struct {
	summary  modelSummary
	encoded  []byte
	assigner *core.Assigner
}

// job tracks one asynchronous fit: submitted → running → done | failed. The
// progress fields are fed by a core.Trace observer while the fit runs.
type job struct {
	ID    string `json:"id"`
	State string `json:"state"` // "running" | "done" | "failed"
	// Class partitions failures for operators: "canceled" (POST
	// /jobs/{id}/cancel), "deadline" (the job's timeout expired), "panic"
	// (a restart goroutine panicked; the daemon survived), or "error"
	// (everything else). Empty unless State is "failed".
	Class string `json:"error_class,omitempty"`
	// Progress mirrors the latest trace callback: completed main-loop
	// iterations across all restarts, and the best objective so far.
	Iterations int     `json:"iterations"`
	BestScore  float64 `json:"best_score"`
	Restarts   int     `json:"restarts_seen"`
	// Model is the registry key of the fitted model once State is "done".
	Model string `json:"model,omitempty"`
	Error string `json:"error,omitempty"`
	// Cached reports that the fit was answered by a registry hit instead of
	// a new computation.
	Cached bool `json:"cached,omitempty"`
}

// fitRequest is the POST /fit body: a model.Fit, which describes the fit and
// makes its registry key, plus the data and the knobs that cannot change a
// completed fit's output. Fields the body omits keep model.DefaultFit's
// values. Exactly one of Rows, CSV and DataFile supplies the dataset.
type fitRequest struct {
	model.Fit

	Rows [][]float64 `json:"rows,omitempty"`
	CSV  string      `json:"csv,omitempty"`
	// DataFile names a .sspcb binary dataset on the daemon's filesystem,
	// opened mmap-backed — the daemon can fit datasets it could never hold
	// flat, and the registry dataset-hash comes from the file's verified
	// header checksum instead of a full scan. Normalize must be absent or
	// "none" (the mapping is immutable; normalize before converting).
	DataFile string `json:"data_file,omitempty"`

	// Workers tunes wall-clock only.
	Workers int `json:"workers,omitempty"`
	// Timeout bounds this fit (a Go duration string such as "30s" or "5m").
	// Empty falls back to the server's -fit-timeout default; any value is
	// clamped to -fit-timeout-max. A run either finishes byte-identically or
	// fails with a deadline error.
	Timeout string `json:"timeout,omitempty"`
}

// server is the sspcd HTTP state: the model registry and the fit-job table.
type server struct {
	mu      sync.Mutex
	models  map[string]*entry
	jobs    map[string]*job
	nextJob int
	// cancels holds the cancel function of every running fit job, keyed by
	// job ID; entries disappear when the fit goroutine exits. Cache hits
	// never enter it, so its length is the gauge -max-jobs bounds.
	cancels map[string]context.CancelCauseFunc
	// fits tracks in-flight fit goroutines so shutdown can drain them.
	fits sync.WaitGroup

	// Hardening knobs, set from main's flags before the server starts. The
	// zero values mean "no limit / no default deadline", which is also what
	// the direct-construction test path gets.
	maxBody       int64         // fit/assign/upload request-body cap; 0 = unbounded
	maxJobs       int           // concurrent fit computations admitted; 0 = unbounded
	fitTimeout    time.Duration // default per-job deadline when the request has none
	fitTimeoutMax time.Duration // hard cap on any per-job deadline

	// draining flips when graceful shutdown starts; new fit submissions are
	// then refused with a typed 503 instead of racing http.Server.Shutdown.
	draining atomic.Bool
	// reqID numbers requests for the panic-recovery middleware's 500s.
	reqID atomic.Int64
	// log gets one Error record per panic the daemon survives: the request
	// or job id, the panic value and the stack, which the 500 body and the
	// job's error text leave out. newServer writes it to stderr.
	log *slog.Logger

	// assignScratch pools the body, row and answer buffers of JSON /assign,
	// so steady-state requests reuse memory instead of growing the heap per
	// call.
	assignScratch sync.Pool
}

type assignBuffers struct {
	body bytes.Buffer
	rows []float64
	lens []int
	out  []int
}

func newServer() *server {
	s := &server{
		models:  make(map[string]*entry),
		jobs:    make(map[string]*job),
		cancels: make(map[string]context.CancelCauseFunc),
		log:     slog.New(slog.NewTextHandler(os.Stderr, nil)),
	}
	// out starts empty rather than nil, so a batch of zero rows answers
	// [] and not null whichever buffer it gets.
	s.assignScratch.New = func() any { return &assignBuffers{out: []int{}} }
	return s
}

// register decodes nothing — it takes an already-decoded model, builds the
// serving assigner, and stores the entry under the model's key with the
// model's canonical encoding, the bytes `sspc -save` writes, whatever
// spelling the model arrived in. Registering the same key twice is
// idempotent.
func (s *server) register(m *model.Model) (string, error) {
	a, err := m.Assigner()
	if err != nil {
		return "", err
	}
	encoded, err := m.Encode()
	if err != nil {
		return "", err
	}
	key := m.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.models[key]; !ok {
		s.models[key] = &entry{
			summary:  modelSummary{Key: key, Algo: m.Algo, K: m.K, D: m.D, N: m.N, Score: m.Score},
			encoded:  encoded,
			assigner: a,
		}
	}
	return key, nil
}

// loadModelFile reads, decodes and registers a model file (the -models
// preload path).
func (s *server) loadModelFile(path string) (string, error) {
	m, err := model.Load(path)
	if err != nil {
		return "", err
	}
	return s.register(m)
}

// ServeHTTP stamps every request with an ID, contains handler panics (a
// panicking handler answers 500 with the request ID instead of killing the
// connection or the daemon, and logs the panic with its stack), and routes.
// Routing is by hand: go.mod pins the language to a version whose ServeMux
// has no method or wildcard patterns, so the table lives here.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("req-%d", s.reqID.Add(1))
	w.Header().Set("X-Request-Id", id)
	defer func() {
		if v := recover(); v != nil {
			s.log.Error("handler panic", "request_id", id, "panic", v, "stack", string(debug.Stack()))
			// Best effort: if the handler already wrote a status line the
			// error text lands mid-body, but the daemon stays up either way.
			httpError(w, http.StatusInternalServerError, "internal error (request %s): %v", id, v)
		}
	}()
	s.route(w, r)
}

func (s *server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/healthz":
		fmt.Fprintln(w, "ok")
	case path == "/fit" && r.Method == http.MethodPost:
		s.handleFit(w, r)
	case strings.HasPrefix(path, "/jobs/") && strings.HasSuffix(path, "/cancel") && r.Method == http.MethodPost:
		s.handleJobCancel(w, strings.TrimSuffix(strings.TrimPrefix(path, "/jobs/"), "/cancel"))
	case strings.HasPrefix(path, "/jobs/") && r.Method == http.MethodGet:
		s.handleJob(w, r, strings.TrimPrefix(path, "/jobs/"))
	case path == "/models" && r.Method == http.MethodGet:
		s.handleModelList(w)
	case path == "/models" && r.Method == http.MethodPost:
		s.handleModelUpload(w, r)
	case strings.HasPrefix(path, "/models/") && r.Method == http.MethodGet:
		s.handleModelDownload(w, strings.TrimPrefix(path, "/models/"))
	case path == "/assign" && r.Method == http.MethodPost:
		s.handleAssign(w, r)
	case path == "/assign/csv" && r.Method == http.MethodPost:
		s.handleAssignCSV(w, r)
	default:
		httpError(w, http.StatusNotFound, "no route for %s %s", r.Method, path)
	}
}

// limitBody caps the request body at the server's -max-body budget; the
// reader then fails with *http.MaxBytesError, which bodyErrStatus maps to a
// typed 413.
func (s *server) limitBody(w http.ResponseWriter, r *http.Request) {
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
}

// bodyErrStatus distinguishes "the body hit the -max-body cap" (413) from
// every other body problem (400).
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// effectiveTimeout resolves a fit's deadline: the request's own value, else
// the server default, clamped to the server maximum. 0 means no deadline.
func (s *server) effectiveTimeout(req time.Duration) time.Duration {
	t := req
	if t <= 0 {
		t = s.fitTimeout
	}
	if s.fitTimeoutMax > 0 && (t <= 0 || t > s.fitTimeoutMax) {
		t = s.fitTimeoutMax
	}
	return t
}

// classifyFitError maps a failed fit's error onto the job's typed class so
// operators (and the drain logic) can tell an operator action from a
// deadline from a crash.
func classifyFitError(err error) string {
	var pe *engine.PanicError
	switch {
	case errors.As(err, &pe):
		return "panic"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}

// dataset materializes the request's data (inline rows, CSV text, or an
// mmap-backed binary file) and applies the requested normalization. It also
// returns the dataset's registry hash — a full-matrix scan for in-memory
// sources, the verified header fingerprint for binary files — and, for
// file-backed datasets, a close function the caller must run when the fit is
// finished with the data (nil otherwise).
func (r *fitRequest) dataset() (ds *dataset.Dataset, hash string, closer func() error, err error) {
	sources := 0
	for _, present := range []bool{len(r.Rows) > 0, r.CSV != "", r.DataFile != ""} {
		if present {
			sources++
		}
	}
	if sources != 1 {
		return nil, "", nil, fmt.Errorf("supply exactly one of rows, csv, data_file")
	}
	if r.DataFile != "" {
		if r.Normalize != "" && r.Normalize != "none" {
			return nil, "", nil, fmt.Errorf("data_file: the mapped dataset is immutable; normalize before converting")
		}
		fl, err := binfmt.OpenBinary(r.DataFile)
		if err != nil {
			return nil, "", nil, err
		}
		return fl.Dataset(), fl.ContentHash(), fl.Close, nil
	}
	if len(r.Rows) > 0 {
		ds, err = dataset.FromRows(r.Rows)
	} else {
		ds, err = dataset.ReadCSV(strings.NewReader(r.CSV), false)
	}
	if err == nil {
		ds, err = dataset.Normalize(ds, r.Normalize)
	}
	if err != nil {
		return nil, "", nil, err
	}
	return ds, model.DatasetHash(ds), nil, nil
}

// onlySpaceLeft reads the rest of a body whose first JSON value dec has just
// decoded, and fails unless only JSON whitespace follows it, as model.Decode
// does for model bodies. A read error, such as the body cap, comes back
// as it is.
func onlySpaceLeft(dec *json.Decoder, body io.Reader) error {
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), body))
	if err != nil {
		return err
	}
	if len(bytes.TrimLeft(rest, " \t\r\n")) > 0 {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// handleFit submits an asynchronous fit: the response carries a job ID to
// poll. A registry hit — same dataset hash, algorithm, canonical options and
// seed — short-circuits to a done job pointing at the existing model.
// Hardening gates run in order: draining (503), body cap (413), admission
// (429 once -max-jobs computations are in flight); admitted fits run under a
// per-job deadline and stay cancellable via POST /jobs/{id}/cancel.
func (s *server) handleFit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.limitBody(w, r)
	req := fitRequest{Fit: model.DefaultFit()}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	if err == nil {
		err = onlySpaceLeft(dec, r.Body)
	}
	if err != nil {
		httpError(w, bodyErrStatus(err), "fit request: %v", err)
		return
	}
	if err := req.Check(); err != nil {
		httpError(w, http.StatusBadRequest, "fit request: %v", err)
		return
	}
	var reqTimeout time.Duration
	if req.Timeout != "" {
		if reqTimeout, err = time.ParseDuration(req.Timeout); err != nil || reqTimeout < 0 {
			httpError(w, http.StatusBadRequest, "fit request: bad timeout %q", req.Timeout)
			return
		}
	}
	ds, hash, closeDS, err := req.dataset()
	if err != nil {
		httpError(w, http.StatusBadRequest, "fit request: %v", err)
		return
	}
	options := req.Options()
	key := model.Key(hash, req.Algo, options, req.Seed)

	s.mu.Lock()
	_, cached := s.models[key]
	if !cached && s.maxJobs > 0 && len(s.cancels) >= s.maxJobs {
		s.mu.Unlock()
		if closeDS != nil {
			closeDS()
		}
		httpError(w, http.StatusTooManyRequests,
			"job queue full (%d fits running, limit %d); retry later", s.maxJobs, s.maxJobs)
		return
	}
	s.nextJob++
	j := &job{ID: fmt.Sprintf("job-%d", s.nextJob), State: "running"}
	if cached {
		j.State = "done"
		j.Model = key
		j.Cached = true
	}
	s.jobs[j.ID] = j
	var ctx context.Context
	if !cached {
		// WithCancelCause keeps the operator's cancel distinguishable from a
		// deadline in the job's error class; the deadline (if any) layers on
		// top inside the fit goroutine.
		var cancel context.CancelCauseFunc
		ctx, cancel = context.WithCancelCause(context.Background())
		s.cancels[j.ID] = cancel
	}
	deadline := s.effectiveTimeout(reqTimeout)
	snap := *j
	s.mu.Unlock()

	if cached && closeDS != nil {
		closeDS()
	}
	if !cached {
		trace := &core.Trace{OnIteration: func(st core.IterationStats) {
			s.mu.Lock()
			j.Iterations++
			if st.Restart+1 > j.Restarts {
				j.Restarts = st.Restart + 1
			}
			if j.Iterations == 1 || st.BestScore > j.BestScore {
				j.BestScore = st.BestScore
			}
			s.mu.Unlock()
		}}
		s.fits.Add(1)
		go func() {
			defer s.fits.Done()
			if closeDS != nil {
				defer closeDS()
			}
			defer func() {
				// A panic that escaped the engine's restart containment (e.g.
				// from the trace callback or model encoding) must not kill the
				// daemon: log it, record it as a failed job and keep serving.
				v := recover()
				if v != nil {
					s.log.Error("fit panic", "job_id", j.ID, "panic", v, "stack", string(debug.Stack()))
				}
				s.mu.Lock()
				delete(s.cancels, j.ID)
				if v != nil {
					j.State = "failed"
					j.Class = "panic"
					j.Error = fmt.Sprintf("fit panicked: %v", v)
				}
				s.mu.Unlock()
			}()
			runCtx := ctx
			if deadline > 0 {
				var cancelTimer context.CancelFunc
				runCtx, cancelTimer = context.WithTimeout(ctx, deadline)
				defer cancelTimer()
			}
			res, _, err := req.Run(runCtx, ds, req.Workers, trace)
			var m *model.Model
			if err == nil {
				m, err = model.FromResult(req.Algo, options, req.Seed, hash, ds.D(), res)
			}
			var regKey string
			if err == nil {
				regKey, err = s.register(m)
			}
			var pe *engine.PanicError
			if errors.As(err, &pe) {
				s.log.Error("fit panic", "job_id", j.ID, "error", err, "stack", string(pe.Stack))
			}
			s.mu.Lock()
			if err != nil {
				j.State = "failed"
				j.Class = classifyFitError(err)
				j.Error = err.Error()
			} else {
				j.State = "done"
				j.Model = regKey
			}
			s.mu.Unlock()
		}()
	}

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, snap)
}

// handleJobCancel cancels a running fit. The cancellation lands at the fit's
// next restart, iteration, or chunk boundary; the job then fails with class
// "canceled". Finished (or cached) jobs answer 409.
func (s *server) handleJobCancel(w http.ResponseWriter, id string) {
	s.mu.Lock()
	_, ok := s.jobs[id]
	cancel := s.cancels[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if cancel == nil {
		httpError(w, http.StatusConflict, "job %q is not running", id)
		return
	}
	cancel(context.Canceled)
	snap, _ := s.jobSnapshot(id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, snap)
}

func (s *server) handleJob(w http.ResponseWriter, _ *http.Request, id string) {
	snap, ok := s.jobSnapshot(id)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, snap)
}

// jobSnapshot copies job id under the lock. Fit goroutines keep updating
// the original, so handlers encode the copy, never the shared job.
func (s *server) jobSnapshot(id string) (job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return job{}, false
	}
	return *j, true
}

// modelSummary is one row of GET /models.
type modelSummary struct {
	Key   string  `json:"key"`
	Algo  string  `json:"algo"`
	K     int     `json:"k"`
	D     int     `json:"d"`
	N     int     `json:"n"`
	Score float64 `json:"score"`
}

func (s *server) handleModelList(w http.ResponseWriter) {
	s.mu.Lock()
	list := make([]modelSummary, 0, len(s.models))
	for _, e := range s.models {
		list = append(list, e.summary)
	}
	s.mu.Unlock()
	sort.Slice(list, func(i, j int) bool { return list[i].Key < list[j].Key })
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, list)
}

func (s *server) handleModelUpload(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	data, err := io.ReadAll(r.Body)
	if err != nil {
		httpError(w, bodyErrStatus(err), "read body: %v", err)
		return
	}
	m, err := model.Decode(data)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key, err := s.register(m)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string]string{"key": key})
}

func (s *server) handleModelDownload(w http.ResponseWriter, key string) {
	s.mu.Lock()
	e, ok := s.models[key]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown model %q", key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(e.encoded)
}

// lookup resolves a model key to its registry entry.
func (s *server) lookup(key string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.models[key]
	return e, ok
}

// handleAssign is the serving hot path: read the body into a pooled buffer,
// decode its rows into a pooled flat buffer, score them on the prebuilt
// allocation-free assigner, and return the winning cluster per row
// (−1 = outlier). The whole body is read before it is parsed, so a body
// past -max-body answers 413 even when its first JSON value ends before the
// cap.
func (s *server) handleAssign(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	buf := s.assignScratch.Get().(*assignBuffers)
	defer s.assignScratch.Put(buf)
	buf.body.Reset()
	if _, err := buf.body.ReadFrom(r.Body); err != nil {
		httpError(w, bodyErrStatus(err), "assign request: %v", err)
		return
	}
	key, rows, lens, err := model.DecodeAssign(buf.body.Bytes(), buf.rows, buf.lens)
	buf.rows, buf.lens = rows, lens
	if err != nil {
		httpError(w, http.StatusBadRequest, "assign request: %v", err)
		return
	}
	e, ok := s.lookup(key)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown model %q", key)
		return
	}
	d := e.assigner.D()
	for i, n := range lens {
		if n != d {
			httpError(w, http.StatusBadRequest, "row %d has %d values, model needs %d", i, n, d)
			return
		}
	}
	if cap(buf.out) < len(lens) {
		buf.out = make([]int, len(lens))
	}
	buf.out = buf.out[:len(lens)]
	if err := e.assigner.AssignBatch(rows, buf.out); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSON(w, map[string][]int{"assignments": buf.out})
}

// handleAssignCSV scores a raw CSV body (no header) against the model named
// by the ?model= query parameter and answers in cmd/sspc's per-object output
// format — one "<index> <cluster>" line per row — so a shell diff against
// the CLI needs no JSON tooling.
func (s *server) handleAssignCSV(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("model")
	e, ok := s.lookup(key)
	if !ok {
		httpError(w, http.StatusNotFound, "unknown model %q", key)
		return
	}
	s.limitBody(w, r)
	ds, err := dataset.ReadCSV(r.Body, false)
	if err != nil {
		httpError(w, bodyErrStatus(err), "csv body: %v", err)
		return
	}
	if ds.D() != e.assigner.D() {
		httpError(w, http.StatusBadRequest, "csv has %d columns, model needs %d", ds.D(), e.assigner.D())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for x := 0; x < ds.N(); x++ {
		// The column check above rules out AssignPoint's only error.
		c, _ := e.assigner.AssignPoint(ds.Row(x))
		fmt.Fprintf(w, "%d %d\n", x, c)
	}
}

// writeJSON encodes v to the client. It takes no lock: a client that stops
// reading blocks this write, and with s.mu held that would stall every
// registry lookup, fit admission and trace callback. Callers pass values no
// other goroutine mutates (jobs go through jobSnapshot or a copy).
func writeJSON(w io.Writer, v any) {
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
