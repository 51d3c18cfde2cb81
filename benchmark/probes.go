package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset/binfmt"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/model"
	"repro/internal/stats"
)

const (
	// probeReps is how many times a probe calls its function; it reports
	// the median.
	probeReps = 50
	// tracedFits is how many fit pairs (one untraced, one traced, same seed)
	// the core probe runs.
	tracedFits = 8
	// probeJobs is how many fit jobs the sspcd probe submits.
	probeJobs = 5
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink float64

// timeReps calls f probeReps times and returns the median duration of one
// call. before, when non-nil, runs untimed ahead of each call.
func timeReps(before func(), f func()) time.Duration {
	took := make([]float64, probeReps)
	for i := range took {
		if before != nil {
			before()
		}
		t0 := time.Now()
		f()
		took[i] = float64(time.Since(t0))
	}
	return time.Duration(median(took))
}

// allocsPer returns the mean number of heap allocations of one call of f.
func allocsPer(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < probeReps; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / probeReps
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeLayers fills every per-layer metric by calling each layer's public
// entry points from outside, on the workload's own data. For a fit workload
// (si nil) it first saves a model of the data and starts a daemon for it.
func (r *runner) probeLayers(ctx context.Context, in *fitInputs, si *serveInputs) error {
	if si == nil {
		var err error
		if si, err = in.serve(ctx, r, in.ref); err != nil {
			return err
		}
		defer si.close()
	}
	if err := r.probeCore(ctx, in); err != nil {
		return err
	}
	if err := r.probeKernels(ctx, in, si); err != nil {
		return err
	}
	if err := r.probeFiles(si); err != nil {
		return err
	}
	return r.probeDaemon(ctx, si)
}

// probeCore runs fits in pairs with the same seed, one with core.Trace hooks
// and one without. The hooks split the traced fit into initialization and
// iterations; the untraced one gives allocations per fit. Both must return
// the same clustering. The traced-minus-untraced wall time is the tracing
// overhead, a diagnostic.
func (r *runner) probeCore(ctx context.Context, in *fitInputs) error {
	var initMS, iterMS, iters, allocMB, allocs, plain, traced []float64
	for i := 0; i < tracedFits; i++ {
		opts := in.opts
		opts.Seed += int64(i)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		want, err := core.RunContext(ctx, in.gt.Data, opts)
		plain = append(plain, ms(time.Since(t0)))
		runtime.ReadMemStats(&m1)
		if err != nil {
			return fmt.Errorf("untraced fit: %w", err)
		}
		allocMB = append(allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))

		var tInit, tLast time.Time
		n := 0
		opts.Trace = &core.Trace{
			OnInit:      func(int, []core.SeedGroupInfo) { tInit = time.Now() },
			OnIteration: func(core.IterationStats) { tLast = time.Now(); n++ },
		}
		t0 = time.Now()
		got, err := core.RunContext(ctx, in.gt.Data, opts)
		traced = append(traced, ms(time.Since(t0)))
		if err == nil {
			err = sameResult(got, want)
		}
		r.op(err)
		if err != nil || n == 0 {
			continue
		}
		initMS = append(initMS, ms(tInit.Sub(t0)))
		iterMS = append(iterMS, ms(tLast.Sub(tInit))/float64(n))
		iters = append(iters, float64(n))
	}
	r.values["core.init_ms"] = median(initMS)
	r.values["core.iter_ms"] = median(iterMS)
	r.values["core.iterations"] = mean(iters)
	r.values["core.fit_alloc_mb"] = median(allocMB)
	r.values["core.fit_allocs"] = median(allocs)
	r.diag("trace.overhead_pct", (median(traced)/median(plain)-1)*100, "%")
	return nil
}

// probeKernels times the fit's inner layers on the first true class, which
// stands in for a cluster the main loop would hold.
func (r *runner) probeKernels(ctx context.Context, in *fitInputs, si *serveInputs) error {
	ds, gt := in.gt.Data, in.gt
	members := gt.MembersOfClass(0)
	byClass := make([][]int, in.opts.K)
	for c := range byClass {
		byClass[c] = gt.MembersOfClass(c)
	}

	pe, err := core.NewParallelEvalBench(ds, in.opts, byClass, fitWorkers)
	if err != nil {
		return err
	}
	r.values["core.eval_ms"] = ms(timeReps(nil, func() { sink = pe.Evaluate() }))

	a, err := si.model.Assigner()
	if err != nil {
		return err
	}
	const batch = 1024
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i % ds.N()
	}
	rows := ds.GatherRows(idx, make([]float64, batch*ds.D()))
	out := make([]int, batch)
	var assignErr error
	r.values["core.assign_ns_per_row"] = float64(timeReps(nil, func() { assignErr = a.AssignBatch(rows, out) })) / batch
	if assignErr != nil {
		return assignErr
	}

	// The grid is built on three of the class's relevant dimensions, as a
	// seed group's grid would be.
	dims := gt.Dims[0][:3]
	build := func() {
		g, err := grid.Build(ds, dims, 6, nil)
		if err != nil {
			panic(err) // three in-range dims and six bins always build
		}
		sink = float64(g.NumOccupiedCells())
	}
	r.values["grid.build_ms"] = ms(timeReps(nil, build))
	r.values["grid.build_allocs"] = allocsPer(build)

	col := ds.GatherColumn(members, gt.Dims[0][0], make([]float64, len(members)))
	work := make([]float64, len(col))
	r.values["stats.median_us"] = us(timeReps(func() { copy(work, col) }, func() { sink = stats.MedianInPlace(work) }))

	dst := make([]float64, len(members)*ds.D())
	r.values["dataset.gather_rows_us"] = us(timeReps(nil, func() { sink = ds.GatherRows(members, dst)[0] }))
	r.values["dataset.median_vector_ms"] = ms(timeReps(nil, func() { sink = ds.MedianVector(members)[0] }))

	var chunkErr error
	r.values["engine.chunks_us"] = us(timeReps(nil, func() {
		chunkErr = engine.ParallelChunksCtx(ctx, ds.N(), 512, fitWorkers, func(int, int, int) {})
	}))
	return chunkErr
}

// probeFiles times the model codec and opening the .sspcb data file.
func (r *runner) probeFiles(si *serveInputs) error {
	var encErr, decErr error
	r.values["model.encode_us"] = us(timeReps(nil, func() { _, encErr = si.model.Encode() }))
	r.values["model.decode_us"] = us(timeReps(nil, func() { _, decErr = model.Decode(si.encoded) }))
	r.values["model.bytes"] = float64(len(si.encoded))
	if err := errors.Join(encErr, decErr); err != nil {
		return err
	}
	var f *binfmt.File
	var err error
	r.values["binfmt.open_ms"] = ms(timeReps(func() {
		if f != nil {
			f.Close()
		}
	}, func() { f, err = binfmt.OpenBinary(si.dataPath) }))
	if err != nil {
		return err
	}
	f.Close()
	st, err := os.Stat(si.dataPath)
	if err != nil {
		return err
	}
	r.values["binfmt.file_mb"] = float64(st.Size()) / (1 << 20)
	return nil
}

// probeDaemon times single requests to the idle daemon over one connection.
func (r *runner) probeDaemon(ctx context.Context, si *serveInputs) error {
	c := newClient(si.d.base, 1)
	defer c.close()
	var err error
	r.values["sspcd.healthz_us"] = us(timeReps(nil, func() {
		_, e := c.do(ctx, http.MethodGet, "/healthz", nil, http.StatusOK)
		r.op(e)
	}))
	i := 0
	r.values["sspcd.assign_us"] = us(timeReps(nil, func() {
		r.op(c.assign(ctx, &si.cases[i%len(si.cases)]))
		i++
	}))
	// The handler decodes the body with encoding/json; timing the same
	// decode here separates JSON cost from transport and scoring.
	r.values["sspcd.json_decode_us"] = us(timeReps(nil, func() {
		var req assignBody
		dec := json.NewDecoder(bytes.NewReader(si.cases[0].body))
		dec.DisallowUnknownFields()
		err = dec.Decode(&req)
	}))
	if err != nil {
		return err
	}

	var accept, total []float64
	var last string
	for j := int64(0); j < probeJobs; j++ {
		res := c.fitJob(ctx, si, si.opts.Seed+2000+j, time.Millisecond)
		r.op(res.err)
		if res.err == nil {
			accept = append(accept, ms(res.accept))
			total = append(total, ms(res.total))
			last = res.id
		}
	}
	if last == "" {
		return fmt.Errorf("no probe fit job completed")
	}
	r.values["sspcd.fit_accept_ms"] = median(accept)
	r.values["sspcd.fit_job_ms"] = median(total)
	r.values["sspcd.job_poll_us"] = us(timeReps(nil, func() {
		_, e := c.do(ctx, http.MethodGet, "/jobs/"+last, nil, http.StatusOK)
		r.op(e)
	}))
	return nil
}
