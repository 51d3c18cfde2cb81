package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset/binfmt"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/stats"
)

const (
	// assignRate is the offered /assign load. It sits well below the
	// daemon's closed-loop capacity on a 2-CPU host (about 4k req/s), so the
	// daemon is not queueing and latency measures service, not backlog.
	assignRate = 400
	// rowsPerRequest is the /assign batch size.
	rowsPerRequest = 8
	// requestPool is how many distinct /assign bodies a run cycles through.
	requestPool = 32
	// shardRows is the .sspcb shard size of the fit jobs' data file.
	shardRows = 250
	// warmUp is how long set-up drives the /assign stream before the
	// measured window; its requests are checked but not timed.
	warmUp = 500 * time.Millisecond
	// jobPoll is how often the fit-job client polls a running job.
	jobPoll = 10 * time.Millisecond
	// servedRestarts is the restart count of the served model's fit. With
	// one restart, about one seed in ten lands in a local optimum (ARI near
	// 0.9); the best of three does not, so the served model's quality is the
	// same whatever the seed.
	servedRestarts = 3
)

// assignConns is the number of /assign connections and load goroutines.
// The fit-job client of serve-mixed takes one more, so the generator never
// uses more goroutines or connections than the host has CPUs (but at least
// one for each stream). Both serve workloads send the same stream.
func assignConns() int { return max(1, runtime.NumCPU()-1) }

// assignCase is one precomputed /assign request and the answer the
// in-process assigner gives for the same rows.
type assignCase struct {
	body   []byte
	want   []byte // the daemon's expected response bytes
	labels []int  // the expected assignments
}

type assignBody struct {
	Model string      `json:"model"`
	Rows  [][]float64 `json:"rows"`
}

type assignAnswer struct {
	Assignments []int `json:"assignments"`
}

// serveInputs is a fitted model of a workload's data, served by a running
// daemon, with the requests to send it.
type serveInputs struct {
	*fitInputs
	model    *model.Model
	encoded  []byte
	dataPath string // the data as a .sspcb file, for data_file fit jobs
	cases    []assignCase
	// ari is the ARI against the true classes of the answers to every
	// request in cases.
	ari float64
	d   *daemon
}

func (si *serveInputs) close() {
	if si != nil && si.d != nil {
		si.d.stop()
	}
}

// serve saves fitted as a model, writes the data as a .sspcb file,
// precomputes the /assign requests and their answers, and starts a daemon
// with the model preloaded.
func (in *fitInputs) serve(ctx context.Context, r *runner, fitted *cluster.Result) (*serveInputs, error) {
	ds := in.gt.Data
	m, err := model.FromResult("sspc", fmt.Sprintf("algo=sspc k=%d", in.opts.K), in.opts.Seed, model.DatasetHash(ds), ds.D(), fitted)
	if err != nil {
		return nil, err
	}
	enc, err := m.Encode()
	if err != nil {
		return nil, err
	}
	modelPath := filepath.Join(r.dir, "model.sspcm")
	if err := os.WriteFile(modelPath, enc, 0o644); err != nil {
		return nil, err
	}
	dataPath, err := filepath.Abs(filepath.Join(r.dir, "data.sspcb"))
	if err != nil {
		return nil, err
	}
	if _, err := binfmt.WriteBinaryFile(dataPath, ds, shardRows); err != nil {
		return nil, err
	}
	a, err := m.Assigner()
	if err != nil {
		return nil, err
	}
	si := &serveInputs{fitInputs: in, model: m, encoded: enc, dataPath: dataPath, cases: make([]assignCase, requestPool)}
	rng := stats.NewRNG(in.opts.Seed)
	var truth, answers []int
	for c := range si.cases {
		rows := make([][]float64, rowsPerRequest)
		flat := make([]float64, 0, rowsPerRequest*ds.D())
		for t := range rows {
			x := rng.Intn(ds.N())
			rows[t] = ds.Row(x)
			flat = append(flat, rows[t]...)
			truth = append(truth, in.gt.Labels[x])
		}
		out := make([]int, rowsPerRequest)
		if err := a.AssignBatch(flat, out); err != nil {
			return nil, err
		}
		body, err := json.Marshal(assignBody{Model: m.Key(), Rows: rows})
		if err != nil {
			return nil, err
		}
		want, err := json.Marshal(assignAnswer{Assignments: out})
		if err != nil {
			return nil, err
		}
		si.cases[c] = assignCase{body: body, want: append(want, '\n'), labels: out}
		answers = append(answers, out...)
	}
	if si.ari, err = eval.ARI(truth, answers); err != nil {
		return nil, err
	}
	if si.d, err = startDaemon(ctx, r.sspcd, "-models", modelPath); err != nil {
		return nil, err
	}
	return si, nil
}

// setupServe is a serve workload's whole set-up: data, the served model's
// fit, files, daemon, and a warm-up of the /assign stream.
func (r *runner) setupServe(ctx context.Context) (*serveInputs, error) {
	in, err := fitPaper.inputs(r.seed)
	if err != nil {
		return nil, err
	}
	opts := in.opts
	opts.Restarts = servedRestarts
	fitted, err := core.RunContext(ctx, in.gt.Data, opts)
	if err != nil {
		return nil, fmt.Errorf("served model fit: %w", err)
	}
	si, err := in.serve(ctx, r, fitted)
	if err != nil {
		return nil, err
	}
	c := newClient(si.d.base, assignConns())
	defer c.close()
	for _, s := range openLoop(ctx, time.Now(), assignRate, warmUp, assignConns(), c.assignFn(si.cases)) {
		if s.err != nil {
			si.close()
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}
	return si, nil
}

// runServe drives a preloaded daemon with the open-loop /assign stream for
// the run's duration; mixed adds a client that runs fit jobs back to back on
// the same daemon.
func runServe(ctx context.Context, r *runner, mixed bool) error {
	si, err := timeSetup(r, func() (*serveInputs, error) { return r.setupServe(ctx) }, (*serveInputs).close)
	defer si.close()
	if err != nil {
		return err
	}
	if r.trace {
		if !mixed {
			// Closed-loop capacity is a diagnostic: it varies too much
			// between runs on a small host to gate anything.
			dur := min(10*time.Second, r.seconds)
			c := newClient(si.d.base, runtime.NumCPU())
			okN, failedN := closedLoop(ctx, dur, runtime.NumCPU(), c.assignFn(si.cases))
			c.close()
			r.attempted += okN + failedN
			r.failed += failedN
			r.diag("loadgen.capacity_rps", float64(okN)/dur.Seconds(), "1/s")
		}
		return r.probeLayers(ctx, si.fitInputs, si)
	}

	conns := assignConns()
	c := newClient(si.d.base, conns+1)
	defer c.close()
	cpu0, err := procCPUSeconds(si.d.pid)
	if err != nil {
		return err
	}
	rss := sampleRSS(si.d.pid)
	start := time.Now().Add(5 * time.Millisecond)
	var jobs []jobResult
	var wg sync.WaitGroup
	if mixed {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs = c.fitJobsUntil(ctx, si, start.Add(r.seconds))
		}()
	}
	shots := openLoop(ctx, start, assignRate, r.seconds, conns, c.assignFn(si.cases))
	cpu1, cpuErr := procCPUSeconds(si.d.pid)
	memErr := r.memory(rss, si.d.pid)
	wg.Wait()
	if err := errors.Join(ctx.Err(), cpuErr, memErr); err != nil {
		return err
	}

	var latency, lag []float64
	served := 0
	for i, s := range shots {
		lag = append(lag, ms(s.lag))
		if s.err != nil {
			latency = append(latency, math.Inf(1))
			r.op(fmt.Errorf("assign request %d: %w", i, s.err))
			continue
		}
		served++
		latency = append(latency, ms(s.latency))
		r.op(nil)
	}
	if served == 0 {
		return fmt.Errorf("no /assign request succeeded")
	}
	r.values["latency_p50_ms"] = median(latency)
	r.values["cpu_ms_per_op"] = (cpu1 - cpu0) * 1000 / float64(served)
	r.values["ari_mean"] = si.ari
	r.latencyTail("loadgen.assign", latency)
	r.diag("loadgen.sent", float64(len(shots)), "count")
	r.diag("loadgen.failed", float64(len(shots)-served), "count")
	r.diag("loadgen.lag_ms_p50", percentile(lag, 50), "ms")
	r.diag("loadgen.lag_ms_p99", percentile(lag, 99), "ms")
	if mixed {
		var took []float64
		for _, j := range jobs {
			r.op(j.err)
			if j.err == nil {
				took = append(took, ms(j.total))
			}
		}
		if len(took) == 0 {
			return fmt.Errorf("no fit job completed")
		}
		r.diag("fit_job_p50_ms", median(took), "ms")
		r.diag("fit_jobs", float64(len(jobs)), "count")
	}
	return nil
}

// client talks to one daemon over a bounded set of keep-alive connections.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request and returns the response body, or an error for any
// transport failure or a status other than want.
func (c *client) do(ctx context.Context, method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(got))
	}
	return got, nil
}

// assign sends one /assign request and checks the answer against the
// in-process assigner's.
func (c *client) assign(ctx context.Context, ac *assignCase) error {
	got, err := c.do(ctx, http.MethodPost, "/assign", ac.body, http.StatusOK)
	if err != nil || bytes.Equal(got, ac.want) {
		return err
	}
	// The bytes may differ only in formatting; compare the values.
	var ans assignAnswer
	if err := json.Unmarshal(got, &ans); err != nil {
		return fmt.Errorf("POST /assign: undecodable answer: %w", err)
	}
	if !slices.Equal(ans.Assignments, ac.labels) {
		return fmt.Errorf("POST /assign: answer %v, in-process assigner says %v", ans.Assignments, ac.labels)
	}
	return nil
}

// assignFn returns a load-generator send function that cycles through cases.
func (c *client) assignFn(cases []assignCase) func(context.Context, int) error {
	return func(ctx context.Context, i int) error { return c.assign(ctx, &cases[i%len(cases)]) }
}

// jobResult is one fit job as the client saw it.
type jobResult struct {
	accept time.Duration // POST /fit until its 202
	total  time.Duration // POST /fit until a poll saw the job finished
	id     string
	err    error
}

type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Class string `json:"error_class"`
	Error string `json:"error"`
}

// fitJob submits one uncached SSPC fit of the .sspcb data with the given
// seed, polls it every poll until it finishes, and checks that it ended
// done with no error class.
func (c *client) fitJob(ctx context.Context, si *serveInputs, seed int64, poll time.Duration) jobResult {
	body, err := json.Marshal(map[string]any{
		"algo": "sspc", "k": si.opts.K, "data_file": si.dataPath, "seed": seed, "workers": 1,
	})
	if err != nil {
		return jobResult{err: err}
	}
	t0 := time.Now()
	raw, err := c.do(ctx, http.MethodPost, "/fit", body, http.StatusAccepted)
	res := jobResult{accept: time.Since(t0)}
	var st jobStatus
	for err == nil {
		if err = json.Unmarshal(raw, &st); err != nil || st.State != "running" {
			break
		}
		time.Sleep(poll)
		raw, err = c.do(ctx, http.MethodGet, "/jobs/"+st.ID, nil, http.StatusOK)
	}
	res.total, res.id = time.Since(t0), st.ID
	switch {
	case err != nil:
		res.err = fmt.Errorf("fit job (seed %d): %w", seed, err)
	case st.State != "done" || st.Class != "":
		res.err = fmt.Errorf("fit job %s (seed %d) ended %s %s: %s", st.ID, seed, st.State, st.Class, st.Error)
	}
	return res
}

// fitJobsUntil runs fit jobs back to back, each with a new seed so none is
// answered from the model cache, until end.
func (c *client) fitJobsUntil(ctx context.Context, si *serveInputs, end time.Time) []jobResult {
	var jobs []jobResult
	for j := int64(0); ctx.Err() == nil && time.Now().Before(end); j++ {
		jobs = append(jobs, c.fitJob(ctx, si, si.opts.Seed+1000+j, jobPoll))
	}
	return jobs
}
