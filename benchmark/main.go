// Command benchmark measures SSPC end to end: whole fits in process on the
// paper's two data shapes, and a live sspcd daemon answering /assign under
// open-loop load, alone and while it runs fit jobs. A -trace 1 run instead
// times each layer's public entry points from outside, on the same data.
//
// Usage, from the repository root (run.sh builds the benchmark and sspcd
// into .bench_build/ first):
//
//	bash benchmark/run.sh --workload fit-paper --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh -seed 1 -out a.json          # every workload, each in its own process
//	bash benchmark/run.sh -compare a1.json a2.json -- b1.json b2.json
//
// A run prints every metric as "workload metric value unit" and ends with
// one JSON line {"correct", "attempted", "failed", "metrics"}. Outputs are
// checked on every run; a wrong answer or failed operation makes the run
// exit 1. BENCHMARK.json at the repository root lists the workloads and
// metrics; README.md beside this file explains them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// workloads maps each workload name to its run. BENCHMARK.json gives the
// reason for each.
var workloads = []struct {
	name string
	run  func(ctx context.Context, r *runner) error
}{
	{"fit-paper", func(ctx context.Context, r *runner) error { return runFit(ctx, r, fitPaper) }},
	{"fit-lowdim", func(ctx context.Context, r *runner) error { return runFit(ctx, r, fitLowdim) }},
	{"serve-assign", func(ctx context.Context, r *runner) error { return runServe(ctx, r, false) }},
	{"serve-mixed", func(ctx context.Context, r *runner) error { return runServe(ctx, r, true) }},
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one run as -out writes it and -compare reads it: the result plus
// what identifies the run and the diagnostics, which never gate.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
	Diagnostics map[string]value `json:"diagnostics,omitempty"`
}

// runner carries one workload run's settings and collects what it measures.
type runner struct {
	seed    int64
	seconds time.Duration
	trace   bool
	sspcd   string // sspcd binary
	dir     string // scratch directory for model and data files
	log     io.Writer

	attempted, failed int
	values            map[string]float64
	diags             map[string]value
}

// op counts one checked operation, failed when err is non-nil. The first
// few failures are logged.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Fprintf(r.log, "benchmark: %v\n", err)
		}
	}
}

func (r *runner) diag(name string, v float64, unit string) {
	r.diags[name] = value{v, unit}
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all to run each in its own process")
		seed    = fs.Int64("seed", 1, "seed every input of the run is generated from")
		seconds = fs.Int("seconds", 20, "how long the measured part of a run lasts")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		sspcd   = fs.String("sspcd", ".bench_build/sspcd", "sspcd binary the serve workloads start")
		out     = fs.String("out", "", "also write the run records to this JSON file")
		compare = fs.Bool("compare", false, "compare result files given as A.json... -- B.json...")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	var recs []record
	code := 0
	if *name == "all" {
		recs, code = runEach(ctx, dir, *seed, *seconds, *trace, *sspcd, stdout, stderr)
	} else {
		r := &runner{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1,
			sspcd: *sspcd, dir: dir, log: stderr, values: map[string]float64{}, diags: map[string]value{}}
		rec, err := runOne(ctx, *name, r)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
			return 1
		}
		printRecord(stdout, rec)
		recs = []record{rec}
		if !rec.Correct {
			code = 1
		}
	}
	if *out != "" && len(recs) > 0 {
		raw, err := json.MarshalIndent(recs, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: write %s: %v\n", *out, err)
			return 1
		}
	}
	return code
}

// runOne runs a single workload in this process and assembles its record.
func runOne(ctx context.Context, name string, r *runner) (record, error) {
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		if err := w.run(ctx, r); err != nil {
			return record{}, err
		}
		defs, trace := endToEnd, 0
		if r.trace {
			defs, trace = perLayer, 1
		}
		rec := record{Workload: name, Seed: r.seed, Trace: trace, Diagnostics: r.diags, result: result{
			Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{},
		}}
		for _, m := range defs {
			v, ok := r.values[m.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return record{}, fmt.Errorf("metric %s was not measured (got %v)", m.name, v)
			}
			rec.Metrics[m.name] = value{v, m.unit}
		}
		if rec.Attempted == 0 {
			return record{}, errors.New("no operation was attempted")
		}
		return rec, nil
	}
	return record{}, fmt.Errorf("unknown workload %q", name)
}

// printRecord writes every metric and diagnostic as "workload metric value
// unit", then the result as one JSON line, which is always the last line.
func printRecord(w io.Writer, rec record) {
	for _, group := range []map[string]value{rec.Metrics, rec.Diagnostics} {
		names := make([]string, 0, len(group))
		for n := range group {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %.6g %s\n", rec.Workload, n, group[n].Value, group[n].Unit)
		}
	}
	raw, _ := json.Marshal(rec.result) // plain floats and strings always marshal
	fmt.Fprintf(w, "%s\n", raw)
}

// runEach runs every workload in a child process of its own, so heap, GC
// state and peak RSS do not carry over from one workload to the next, and
// collects the children's records.
func runEach(ctx context.Context, dir string, seed int64, seconds, trace int, sspcd string, stdout, stderr io.Writer) ([]record, int) {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return nil, 1
	}
	var recs []record
	code := 0
	for _, w := range workloads {
		out := filepath.Join(dir, w.name+".json")
		cmd := exec.CommandContext(ctx, self, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-sspcd", sspcd, "-out", out)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
		var got []record
		raw, err := os.ReadFile(out)
		if err == nil {
			err = json.Unmarshal(raw, &got)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: no record: %v\n", w.name, err)
			code = 1
			continue
		}
		recs = append(recs, got...)
	}
	return recs, code
}
