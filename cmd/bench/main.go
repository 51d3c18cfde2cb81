// Command bench runs the repository's named benchmark suite through `go
// test -bench` and maintains the machine-readable JSON baselines
// (BENCH_<n>.json, one per performance PR), so the perf trajectory is a
// committed, diffable curve instead of log lines lost to CI history.
//
// Three modes:
//
//	bench -n 6 [-bench regex] [-benchtime 300ms] [-count 2]
//	    runs the suite in the current module and writes BENCH_6.json
//	    (-out overrides the derived path; one of -n / -out is required so a
//	    new run never silently overwrites a prior PR's baseline)
//	bench -verify BENCH_6.json
//	    checks an existing baseline: valid JSON, the expected kernel
//	    benchmark keys present, sane metric values — all problems are
//	    collected and reported in one pass
//	bench -diff [-threshold 0.1] [-report-only] [-same-host] BENCH_5.json BENCH_6.json
//	    compares two baselines key by key on ns/op with a relative noise
//	    threshold (default ±10%), prints the per-key delta table, and exits
//	    non-zero on any regression beyond the threshold unless -report-only
//	    (flags after the paths are rescanned too, so the trailing order
//	    also works despite the std flag package stopping at a positional).
//	    Baselines record the host fingerprint (goos/goarch/cpu plus
//	    GOMAXPROCS and NumCPU); when the two files disagree the diff warns
//	    that it is comparing machines, not code, and -same-host turns that
//	    warning into a hard error
//
// The default suite covers the columnar evaluation kernel and the bulk row
// gather (BenchmarkEvaluateColumnar, BenchmarkGatherRows), the seed-group
// grid SSPC's initialization builds (BenchmarkGridBuild, charted but not a
// required key), the disk storage tier (BenchmarkGatherRowsMmap,
// BenchmarkClusterMmap — the same gather and full-clustering shapes over an
// mmap-backed .sspcb file), the cluster-chunked
// parallel evaluation path (BenchmarkEvaluateParallel), the chunked
// COP-KMeans constrained-assignment pass
// (BenchmarkConstrainedAssignChunked), the worker sweeps of the other two
// baselines that chunk inside a restart (BenchmarkProclusChunked,
// BenchmarkSeedKMeansChunked; charted but not required keys), the macro
// assignment benchmark (BenchmarkAssignChunked), the
// model-serving hot path (BenchmarkServeAssign — the Assigner behind
// cmd/sspcd's /assign), the /assign body decode, encoding/json against
// model.DecodeAssign (BenchmarkAssignDecode, charted but not a required
// key), and whole SSPC fits on the benchmark workloads' two fit shapes at
// one and two workers with the time to the end of initialization
// (BenchmarkFitInit, charted but not a required key). CI runs the suite at
// -benchtime=1x every PR — a
// compile-and-run smoke gate, not a measurement — verifies the committed
// baseline's shape, and runs the cross-baseline diff in report-only mode
// (single-core CI timings are noise; real numbers come from multi-core
// hardware, see docs/PERFORMANCE.md).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultBench is the named benchmark suite a bare `bench` run executes.
const defaultBench = "^(BenchmarkEvaluateColumnar|BenchmarkEvaluateParallel|BenchmarkGridBuild|BenchmarkGatherRows|BenchmarkGatherRowsMmap|BenchmarkAssignChunked|BenchmarkConstrainedAssignChunked|BenchmarkProclusChunked|BenchmarkSeedKMeansChunked|BenchmarkClusterMmap|BenchmarkClusterCtxOverhead|BenchmarkServeAssign|BenchmarkAssignDecode|BenchmarkFitInit)$"

// requiredKeys are the benchmark names (GOMAXPROCS suffix stripped) a valid
// baseline must contain: the two EvaluateColumnar legs that compare the
// columnar kernel against the per-element At scan, the bulk row accessor
// (in-memory and over the mmap-backed disk tier), the worker sweeps of
// the cluster-chunked parallel evaluation path and the chunked COP-KMeans
// constrained-assignment pass, the disk-tier clustering leg, and the serving
// hot path's batch sweep (the Assigner behind cmd/sspcd's /assign).
// The speedup report derives its key strings from this list — it is the one
// authoritative copy of the names.
var requiredKeys = []string{
	"BenchmarkEvaluateColumnar/flat/columnar",
	"BenchmarkEvaluateColumnar/flat/atscan",
	"BenchmarkEvaluateParallel/workers=1",
	"BenchmarkEvaluateParallel/workers=2",
	"BenchmarkEvaluateParallel/workers=4",
	"BenchmarkEvaluateParallel/workers=8",
	"BenchmarkConstrainedAssignChunked/workers=1",
	"BenchmarkConstrainedAssignChunked/workers=2",
	"BenchmarkConstrainedAssignChunked/workers=4",
	"BenchmarkConstrainedAssignChunked/workers=8",
	"BenchmarkGatherRows/flat",
	"BenchmarkGatherRowsMmap/shards=16",
	"BenchmarkClusterMmap/shards=16",
	"BenchmarkClusterCtxOverhead/run",
	"BenchmarkClusterCtxOverhead/ctx",
	"BenchmarkServeAssign/batch=1",
	"BenchmarkServeAssign/batch=64",
	"BenchmarkServeAssign/batch=1024",
}

// Metrics is one benchmark's parsed result line.
type Metrics struct {
	Procs       int                `json:"procs"`
	N           int                `json:"n"`
	NsPerOp     float64            `json:"ns_per_op"`
	BPerOp      float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Baseline is the JSON document bench writes and verifies. GOMAXPROCS and
// NumCPU identify the recording host's parallelism alongside the CPU model:
// -diff compares these fields and warns (or, with -same-host, gates) when
// two baselines were not recorded on equivalent hardware — the worker-sweep
// ratios are meaningless across hosts.
type Baseline struct {
	Suite      string             `json:"suite"`
	Benchtime  string             `json:"benchtime,omitempty"`
	Count      int                `json:"count"`
	GoVersion  string             `json:"go_version,omitempty"`
	GOOS       string             `json:"goos,omitempty"`
	GOARCH     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	NumCPU     int                `json:"num_cpu,omitempty"`
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

func main() {
	var (
		benchRe    = flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		benchtime  = flag.String("benchtime", "", "go test -benchtime value (e.g. 1x, 100ms); empty uses the go default")
		count      = flag.Int("count", 1, "go test -count value")
		out        = flag.String("out", "", "output baseline path (default BENCH_<n>.json from -n)")
		n          = flag.Int("n", 0, "PR number the baseline belongs to; derives the default -out BENCH_<n>.json")
		dir        = flag.String("dir", ".", "module directory to benchmark (the package is always the root package)")
		verify     = flag.String("verify", "", "verify an existing baseline file instead of running benchmarks")
		diff       = flag.Bool("diff", false, "compare two baselines: bench -diff OLD NEW")
		threshold  = flag.Float64("threshold", 0.10, "relative ns/op noise threshold for -diff (0.10 = ±10%)")
		reportOnly = flag.Bool("report-only", false, "with -diff: print the delta table but never exit non-zero")
		sameHost   = flag.Bool("same-host", false, "with -diff: require both baselines to come from the same host (goos/goarch/cpu/gomaxprocs/num_cpu); host drift becomes an error instead of a warning")
	)
	flag.Parse()

	if *diff {
		paths := positionalArgs(flag.CommandLine, flag.Args())
		if len(paths) != 2 {
			fmt.Fprintf(os.Stderr, "bench: -diff needs exactly two baseline paths (OLD NEW), got %d\n", len(paths))
			os.Exit(2)
		}
		oldBase, err := loadBaseline(paths[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: diff: %v\n", err)
			os.Exit(1)
		}
		newBase, err := loadBaseline(paths[1])
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: diff: %v\n", err)
			os.Exit(1)
		}
		drift := hostFingerprintDiff(oldBase, newBase)
		for _, line := range drift {
			fmt.Fprintf(os.Stderr, "bench: host drift: %s\n", line)
		}
		if len(drift) > 0 && *sameHost {
			fmt.Fprintf(os.Stderr, "bench: -same-host: baselines %s and %s were recorded on different hosts; their timings are not comparable\n", paths[0], paths[1])
			os.Exit(1)
		}
		if len(drift) > 0 {
			fmt.Fprintln(os.Stderr, "bench: warning: cross-host timings compare machines, not code; the delta table below is informational")
		}
		regressed, err := diffBaselines(os.Stdout, paths[0], paths[1], *threshold)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: diff: %v\n", err)
			os.Exit(1)
		}
		if regressed && !*reportOnly {
			fmt.Fprintf(os.Stderr, "bench: regression beyond ±%.0f%% (rerun with -diff -report-only OLD NEW to not gate)\n", *threshold*100)
			os.Exit(1)
		}
		return
	}

	if *verify != "" {
		if err := verifyBaseline(*verify); err != nil {
			fmt.Fprintf(os.Stderr, "bench: verify %s: %v\n", *verify, err)
			os.Exit(1)
		}
		fmt.Printf("bench: %s OK\n", *verify)
		return
	}

	if *out == "" {
		if *n <= 0 {
			fmt.Fprintln(os.Stderr, "bench: pass -n <PR number> (writes BENCH_<n>.json) or an explicit -out path; refusing to guess and overwrite a prior baseline")
			os.Exit(2)
		}
		*out = fmt.Sprintf("BENCH_%d.json", *n)
	}

	base, err := runSuite(*dir, *benchRe, *benchtime, *count)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bench: wrote %s (%d benchmarks)\n", *out, len(base.Benchmarks))
	reportKernelSpeedup(base)
}

// positionalArgs collects the positional arguments left after fs has parsed
// the command line, rescanning any flags that appear after a positional: the
// std flag package stops flag parsing at the first non-flag argument, so
// `bench -diff OLD NEW -report-only` would otherwise report three
// positionals and silently ignore -report-only. Re-parsed flag values land
// in the same registered variables, so trailing flags behave exactly like
// leading ones. A literal "--" ends flag scanning; everything after it is
// positional.
func positionalArgs(fs *flag.FlagSet, args []string) []string {
	var pos []string
	for len(args) > 0 {
		arg := args[0]
		if arg == "--" {
			return append(pos, args[1:]...)
		}
		if len(arg) > 1 && arg[0] == '-' {
			// ExitOnError FlagSets (flag.CommandLine) never return an error;
			// a ContinueOnError set stops here rather than looping on the
			// unparseable flag.
			if err := fs.Parse(args); err != nil {
				return pos
			}
			args = fs.Args()
			continue
		}
		pos = append(pos, arg)
		args = args[1:]
	}
	return pos
}

// runSuite executes the benchmarks and parses the output into a Baseline.
func runSuite(dir, benchRe, benchtime string, count int) (*Baseline, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-count", strconv.Itoa(count)}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, stdout.String())
	}
	base, err := parseOutput(stdout.String())
	if err != nil {
		return nil, err
	}
	base.Suite = benchRe
	base.Benchtime = benchtime
	base.Count = count
	base.GoVersion = strings.TrimPrefix(goVersion(), "go version ")
	base.GOMAXPROCS = runtime.GOMAXPROCS(0)
	base.NumCPU = runtime.NumCPU()
	return base, nil
}

// hostFingerprintDiff compares the host-identity fields of two baselines and
// returns one human-readable line per differing field. A field that is unset
// on either side (baselines recorded before the field existed) is skipped:
// unknown is not drift.
func hostFingerprintDiff(oldBase, newBase *Baseline) []string {
	var drift []string
	str := func(name, o, n string) {
		if o != "" && n != "" && o != n {
			drift = append(drift, fmt.Sprintf("%s: %q -> %q", name, o, n))
		}
	}
	num := func(name string, o, n int) {
		if o != 0 && n != 0 && o != n {
			drift = append(drift, fmt.Sprintf("%s: %d -> %d", name, o, n))
		}
	}
	str("goos", oldBase.GOOS, newBase.GOOS)
	str("goarch", oldBase.GOARCH, newBase.GOARCH)
	str("cpu", oldBase.CPU, newBase.CPU)
	num("gomaxprocs", oldBase.GOMAXPROCS, newBase.GOMAXPROCS)
	num("num_cpu", oldBase.NumCPU, newBase.NumCPU)
	return drift
}

func goVersion() string {
	out, err := exec.Command("go", "version").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// parseOutput extracts the environment header and every benchmark result
// line from `go test -bench` output. Repeated lines for one name (-count >
// 1) keep the per-op minimum — the conventional "best of" baseline.
func parseOutput(out string) (*Baseline, error) {
	base := &Baseline{Benchmarks: map[string]Metrics{}}
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			base.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			base.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			base.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		name, m, ok := parseBenchLine(line)
		if !ok {
			continue
		}
		if prev, seen := base.Benchmarks[name]; !seen || m.NsPerOp < prev.NsPerOp {
			base.Benchmarks[name] = m
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(base.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines in go test output:\n%s", out)
	}
	return base, nil
}

// parseBenchLine parses one `BenchmarkName-8  N  12.3 ns/op  4 B/op ...`
// line into its GOMAXPROCS-stripped name and metrics. A metric field whose
// value does not parse as a float (custom b.ReportMetric units can emit
// anything) is skipped on its own — the rest of the line's metrics are kept
// rather than dropping the whole benchmark result.
func parseBenchLine(line string) (string, Metrics, bool) {
	match := benchLine.FindStringSubmatch(line)
	if match == nil {
		return "", Metrics{}, false
	}
	m := Metrics{}
	if match[2] != "" {
		m.Procs, _ = strconv.Atoi(match[2])
	}
	m.N, _ = strconv.Atoi(match[3])
	fields := strings.Fields(match[4])
	for i := 0; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			m.NsPerOp = val
		case "B/op":
			m.BPerOp = val
		case "allocs/op":
			m.AllocsPerOp = val
		default:
			if m.Extra == nil {
				m.Extra = map[string]float64{}
			}
			m.Extra[unit] = val
		}
	}
	return match[1], m, true
}

// loadBaseline reads and unmarshals one baseline file.
func loadBaseline(path string) (*Baseline, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Baseline
	if err := json.Unmarshal(buf, &base); err != nil {
		return nil, fmt.Errorf("%s: invalid JSON: %w", path, err)
	}
	return &base, nil
}

// verifyBaseline checks that a baseline file is valid JSON with every
// required kernel benchmark key and sane metric values. All problems —
// missing keys and implausible metrics alike — are collected and reported in
// one error, so a broken baseline is diagnosed in a single run.
func verifyBaseline(path string) error {
	base, err := loadBaseline(path)
	if err != nil {
		return err
	}
	if len(base.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks recorded")
	}
	var problems []string
	for _, key := range requiredKeys {
		m, ok := base.Benchmarks[key]
		if !ok {
			problems = append(problems, fmt.Sprintf("missing required benchmark key %q", key))
			continue
		}
		if m.N <= 0 || m.NsPerOp <= 0 {
			problems = append(problems, fmt.Sprintf("benchmark %q has implausible metrics (n=%d, ns/op=%v)", key, m.N, m.NsPerOp))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("%d problem(s):\n  %s", len(problems), strings.Join(problems, "\n  "))
	}
	reportKernelSpeedup(base)
	return nil
}

// kernelStorages derives the storage-variant names of the kernel-vs-At-scan
// comparison from requiredKeys (the "BenchmarkEvaluateColumnar/<storage>/…"
// entries), so the report loop and the verification list can never drift
// apart.
func kernelStorages() []string {
	var out []string
	seen := map[string]bool{}
	for _, key := range requiredKeys {
		rest, ok := strings.CutPrefix(key, "BenchmarkEvaluateColumnar/")
		if !ok {
			continue
		}
		storage, _, ok := strings.Cut(rest, "/")
		if !ok || seen[storage] {
			continue
		}
		seen[storage] = true
		out = append(out, storage)
	}
	return out
}

// reportKernelSpeedup prints the gather-kernel-vs-At-scan ratios when both
// legs are present. Informational only: CI smoke runs use -benchtime=1x,
// whose single-iteration timings are noise, so the gate is the committed
// baseline's shape, not a machine-dependent threshold.
func reportKernelSpeedup(base *Baseline) {
	for _, storage := range kernelStorages() {
		col, okC := base.Benchmarks["BenchmarkEvaluateColumnar/"+storage+"/columnar"]
		at, okA := base.Benchmarks["BenchmarkEvaluateColumnar/"+storage+"/atscan"]
		if okC && okA && col.NsPerOp > 0 {
			fmt.Printf("bench: %s: columnar %.0f ns/op vs atscan %.0f ns/op (%.2fx)\n",
				storage, col.NsPerOp, at.NsPerOp, at.NsPerOp/col.NsPerOp)
		}
	}
}

// deltaStatus classifies one key's ns/op movement against the threshold.
func deltaStatus(delta, threshold float64) string {
	switch {
	case delta > threshold:
		return "REGRESSION"
	case delta < -threshold:
		return "improvement"
	default:
		return "ok"
	}
}

// diffBaselines compares two baselines key by key on ns/op and prints a
// per-key delta table. Keys present in only one file are listed as added /
// removed (informational — a suite is allowed to grow or retire
// benchmarks). Returns whether any shared key regressed beyond the
// threshold; the caller decides whether that gates.
func diffBaselines(w io.Writer, oldPath, newPath string, threshold float64) (bool, error) {
	oldBase, err := loadBaseline(oldPath)
	if err != nil {
		return false, err
	}
	newBase, err := loadBaseline(newPath)
	if err != nil {
		return false, err
	}

	keys := map[string]bool{}
	for k := range oldBase.Benchmarks {
		keys[k] = true
	}
	for k := range newBase.Benchmarks {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	width := len("benchmark")
	for _, k := range sorted {
		if len(k) > width {
			width = len(k)
		}
	}
	fmt.Fprintf(w, "bench: diff %s -> %s (noise threshold ±%.0f%%)\n", oldPath, newPath, threshold*100)
	fmt.Fprintf(w, "%-*s  %14s  %14s  %8s  %s\n", width, "benchmark", "old ns/op", "new ns/op", "delta", "status")

	regressed := false
	var regressions, improvements, added, removed int
	for _, k := range sorted {
		o, inOld := oldBase.Benchmarks[k]
		n, inNew := newBase.Benchmarks[k]
		switch {
		case !inNew:
			removed++
			fmt.Fprintf(w, "%-*s  %14.0f  %14s  %8s  removed\n", width, k, o.NsPerOp, "-", "-")
		case !inOld:
			added++
			fmt.Fprintf(w, "%-*s  %14s  %14.0f  %8s  added\n", width, k, "-", n.NsPerOp, "-")
		case o.NsPerOp <= 0:
			// A zero old reading has no meaningful ratio; report, never gate.
			fmt.Fprintf(w, "%-*s  %14.0f  %14.0f  %8s  old reading implausible\n", width, k, o.NsPerOp, n.NsPerOp, "-")
		default:
			delta := (n.NsPerOp - o.NsPerOp) / o.NsPerOp
			status := deltaStatus(delta, threshold)
			switch status {
			case "REGRESSION":
				regressed = true
				regressions++
			case "improvement":
				improvements++
			}
			fmt.Fprintf(w, "%-*s  %14.0f  %14.0f  %+7.1f%%  %s\n", width, k, o.NsPerOp, n.NsPerOp, delta*100, status)
		}
	}
	fmt.Fprintf(w, "bench: %d regression(s) / %d improvement(s) beyond ±%.0f%%; %d key(s) added, %d removed\n",
		regressions, improvements, threshold*100, added, removed)
	return regressed, nil
}
