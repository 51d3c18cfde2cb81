package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line string
		name string
		want Metrics
		ok   bool
	}{
		{
			line: "BenchmarkEvaluateColumnar/flat/columnar-8         \t      30\t   1400157 ns/op\t       0 B/op\t       0 allocs/op",
			name: "BenchmarkEvaluateColumnar/flat/columnar",
			want: Metrics{Procs: 8, N: 30, NsPerOp: 1400157},
			ok:   true,
		},
		{
			line: "BenchmarkGatherRows/shards=16-2 100 29637.5 ns/op 8 B/op 1 allocs/op",
			name: "BenchmarkGatherRows/shards=16",
			want: Metrics{Procs: 2, N: 100, NsPerOp: 29637.5, BPerOp: 8, AllocsPerOp: 1},
			ok:   true,
		},
		{
			line: "BenchmarkAblationGrid/g20c3-4 12 5000 ns/op 0.812 ARI/op",
			name: "BenchmarkAblationGrid/g20c3",
			want: Metrics{Procs: 4, N: 12, NsPerOp: 5000, Extra: map[string]float64{"ARI/op": 0.812}},
			ok:   true,
		},
		{
			// A custom-metric field that fails float parsing must lose only
			// that field — the rest of the line's metrics are kept (the old
			// parser dropped the whole result line).
			line: "BenchmarkAblationGrid/g20c3-4 12 5000 ns/op NaN%CI ARI/op 3 allocs/op",
			name: "BenchmarkAblationGrid/g20c3",
			want: Metrics{Procs: 4, N: 12, NsPerOp: 5000, AllocsPerOp: 3},
			ok:   true,
		},
		{line: "PASS", ok: false},
		{line: "ok  \trepro\t0.256s", ok: false},
		{line: "goos: linux", ok: false},
	}
	for _, c := range cases {
		name, m, ok := parseBenchLine(c.line)
		if ok != c.ok {
			t.Errorf("parseBenchLine(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if name != c.name {
			t.Errorf("parseBenchLine(%q) name = %q, want %q", c.line, name, c.name)
		}
		if m.Procs != c.want.Procs || m.N != c.want.N || m.NsPerOp != c.want.NsPerOp ||
			m.BPerOp != c.want.BPerOp || m.AllocsPerOp != c.want.AllocsPerOp {
			t.Errorf("parseBenchLine(%q) = %+v, want %+v", c.line, m, c.want)
		}
		for unit, val := range c.want.Extra {
			if m.Extra[unit] != val {
				t.Errorf("parseBenchLine(%q) extra[%s] = %v, want %v", c.line, unit, m.Extra[unit], val)
			}
		}
	}
}

// TestPositionalArgs pins the trailing-flag tolerance of -diff mode: flags
// after the baseline paths (where the std flag package stops scanning) must
// still be parsed into their registered variables, with only the paths
// returned as positionals — the ordering CI's diff step used before the
// flags-first fix, and one a user will plausibly type again.
func TestPositionalArgs(t *testing.T) {
	cases := []struct {
		args       []string
		wantPos    []string
		wantReport bool
		wantThresh float64
	}{
		// Flags-first: flag.Parse consumed everything, nothing to rescan.
		{[]string{"old.json", "new.json"}, []string{"old.json", "new.json"}, false, 0.10},
		// Trailing bool flag after both positionals.
		{[]string{"old.json", "new.json", "-report-only"}, []string{"old.json", "new.json"}, true, 0.10},
		// Flags interleaved between and after positionals.
		{[]string{"old.json", "-threshold", "0.25", "new.json", "-report-only"}, []string{"old.json", "new.json"}, true, 0.25},
		// "--" ends flag scanning: a dashed name after it stays positional.
		{[]string{"old.json", "--", "-new.json"}, []string{"old.json", "-new.json"}, false, 0.10},
		// A bare "-" is a positional by flag-package convention.
		{[]string{"-", "new.json"}, []string{"-", "new.json"}, false, 0.10},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("bench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		reportOnly := fs.Bool("report-only", false, "")
		threshold := fs.Float64("threshold", 0.10, "")
		got := positionalArgs(fs, c.args)
		if len(got) != len(c.wantPos) {
			t.Errorf("positionalArgs(%q) = %q, want %q", c.args, got, c.wantPos)
			continue
		}
		for i := range got {
			if got[i] != c.wantPos[i] {
				t.Errorf("positionalArgs(%q) = %q, want %q", c.args, got, c.wantPos)
				break
			}
		}
		if *reportOnly != c.wantReport {
			t.Errorf("positionalArgs(%q): report-only = %v, want %v", c.args, *reportOnly, c.wantReport)
		}
		if *threshold != c.wantThresh {
			t.Errorf("positionalArgs(%q): threshold = %v, want %v", c.args, *threshold, c.wantThresh)
		}
	}

	// An unparseable flag on a ContinueOnError set must not loop forever;
	// the positionals seen before it are still returned.
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if got := positionalArgs(fs, []string{"old.json", "-no-such-flag", "new.json"}); len(got) != 1 || got[0] != "old.json" {
		t.Errorf("positionalArgs with unknown flag = %q, want [old.json]", got)
	}
}

func TestParseOutputHeaderAndBestOf(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkGatherRows/flat-8 50 30000 ns/op 0 B/op 0 allocs/op
BenchmarkGatherRows/flat-8 50 28000 ns/op 0 B/op 0 allocs/op
PASS
ok  	repro	1.0s
`
	base, err := parseOutput(out)
	if err != nil {
		t.Fatal(err)
	}
	if base.GOOS != "linux" || base.GOARCH != "amd64" || base.CPU == "" {
		t.Errorf("header not parsed: %+v", base)
	}
	m, ok := base.Benchmarks["BenchmarkGatherRows/flat"]
	if !ok {
		t.Fatalf("benchmark key missing: %v", base.Benchmarks)
	}
	if m.NsPerOp != 28000 {
		t.Errorf("repeated lines should keep the minimum ns/op, got %v", m.NsPerOp)
	}
}

func TestVerifyBaseline(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		buf, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	good := &Baseline{Benchmarks: map[string]Metrics{}}
	for _, key := range requiredKeys {
		good.Benchmarks[key] = Metrics{Procs: 1, N: 10, NsPerOp: 1000}
	}
	if err := verifyBaseline(write("good.json", good)); err != nil {
		t.Errorf("complete baseline rejected: %v", err)
	}

	missing := &Baseline{Benchmarks: map[string]Metrics{
		requiredKeys[0]: {N: 10, NsPerOp: 1000},
	}}
	if err := verifyBaseline(write("missing.json", missing)); err == nil {
		t.Error("baseline missing required keys accepted")
	}

	bad := &Baseline{Benchmarks: map[string]Metrics{}}
	for _, key := range requiredKeys {
		bad.Benchmarks[key] = Metrics{N: 0, NsPerOp: 0}
	}
	if err := verifyBaseline(write("bad.json", bad)); err == nil {
		t.Error("baseline with implausible metrics accepted")
	}

	// Mixed breakage: every problem — the missing key AND every implausible
	// metric — must surface in one run, not abort at the first.
	mixed := &Baseline{Benchmarks: map[string]Metrics{}}
	for _, key := range requiredKeys[1:] {
		mixed.Benchmarks[key] = Metrics{N: 0, NsPerOp: 0}
	}
	err := verifyBaseline(write("mixed.json", mixed))
	if err == nil {
		t.Fatal("mixed broken baseline accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, requiredKeys[0]) || !strings.Contains(msg, "missing") {
		t.Errorf("error does not name the missing key %q: %v", requiredKeys[0], err)
	}
	for _, key := range requiredKeys[1:] {
		if !strings.Contains(msg, key) {
			t.Errorf("error does not name implausible key %q in the same run: %v", key, err)
		}
	}

	notJSON := filepath.Join(dir, "not.json")
	if err := os.WriteFile(notJSON, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := verifyBaseline(notJSON); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// writeBaseline marshals a Benchmarks map to a temp file for diff tests.
func writeBaseline(t *testing.T, dir, name string, marks map[string]Metrics) string {
	t.Helper()
	buf, err := json.MarshalIndent(&Baseline{Benchmarks: marks}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDiffBaselines covers the four key-comparison outcomes of the diff
// gate: a regression beyond the threshold (gates), an improvement beyond it
// and movement within the noise band (neither gates), and keys present in
// only one file (reported, never gate).
func TestDiffBaselines(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeBaseline(t, dir, "old.json", map[string]Metrics{
		"BenchmarkA/regressed": {N: 10, NsPerOp: 1000},
		"BenchmarkB/improved":  {N: 10, NsPerOp: 1000},
		"BenchmarkC/noise":     {N: 10, NsPerOp: 1000},
		"BenchmarkD/retired":   {N: 10, NsPerOp: 500},
		"BenchmarkZ/zeroedOld": {N: 10, NsPerOp: 0},
	})
	newPath := writeBaseline(t, dir, "new.json", map[string]Metrics{
		"BenchmarkA/regressed": {N: 10, NsPerOp: 1300}, // +30%
		"BenchmarkB/improved":  {N: 10, NsPerOp: 600},  // -40%
		"BenchmarkC/noise":     {N: 10, NsPerOp: 1050}, // +5%
		"BenchmarkE/fresh":     {N: 10, NsPerOp: 700},  // only in NEW
		"BenchmarkZ/zeroedOld": {N: 10, NsPerOp: 10},
	})

	var buf bytes.Buffer
	regressed, err := diffBaselines(&buf, oldPath, newPath, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a +30% key did not flag a regression")
	}
	out := buf.String()
	for _, want := range []string{
		"BenchmarkA/regressed", "REGRESSION",
		"BenchmarkB/improved", "improvement",
		"BenchmarkC/noise", "ok",
		"BenchmarkD/retired", "removed",
		"BenchmarkE/fresh", "added",
		"1 regression(s) / 1 improvement(s)",
		"1 key(s) added, 1 removed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff table missing %q:\n%s", want, out)
		}
	}

	// Without the regressed key the diff must come back clean: the asymmetric
	// keys and the unratioable zero-old reading never gate.
	cleanNew := writeBaseline(t, dir, "clean.json", map[string]Metrics{
		"BenchmarkB/improved":  {N: 10, NsPerOp: 600},
		"BenchmarkC/noise":     {N: 10, NsPerOp: 1050},
		"BenchmarkE/fresh":     {N: 10, NsPerOp: 700},
		"BenchmarkZ/zeroedOld": {N: 10, NsPerOp: 10},
	})
	buf.Reset()
	regressed, err = diffBaselines(&buf, oldPath, cleanNew, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Errorf("diff with no shared regressed key gated anyway:\n%s", buf.String())
	}

	// A wider threshold absorbs the +30% as noise.
	buf.Reset()
	regressed, err = diffBaselines(&buf, oldPath, newPath, 0.50)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Error("+30% gated at a ±50% threshold")
	}

	if _, err := diffBaselines(&buf, filepath.Join(dir, "absent.json"), newPath, 0.10); err == nil {
		t.Error("missing OLD baseline accepted")
	}
}

// TestHostFingerprintDiff pins the -diff host-drift rules: every identity
// field that differs is reported, fields that agree are silent, and a field
// unset on either side (baselines recorded before GOMAXPROCS/NumCPU existed)
// is skipped — unknown is not drift, so BENCH_8-era files diff cleanly
// against newer ones from the same machine.
func TestHostFingerprintDiff(t *testing.T) {
	host := func() *Baseline {
		return &Baseline{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon", GOMAXPROCS: 8, NumCPU: 8}
	}

	if drift := hostFingerprintDiff(host(), host()); len(drift) != 0 {
		t.Errorf("identical hosts reported drift: %v", drift)
	}

	other := host()
	other.CPU = "EPYC"
	other.GOMAXPROCS = 32
	other.NumCPU = 64
	drift := hostFingerprintDiff(host(), other)
	if len(drift) != 3 {
		t.Fatalf("3 differing fields, got %d: %v", len(drift), drift)
	}
	joined := strings.Join(drift, "\n")
	for _, want := range []string{`cpu: "Xeon" -> "EPYC"`, "gomaxprocs: 8 -> 32", "num_cpu: 8 -> 64"} {
		if !strings.Contains(joined, want) {
			t.Errorf("drift report missing %q:\n%s", want, joined)
		}
	}

	legacy := &Baseline{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon"}
	if drift := hostFingerprintDiff(legacy, host()); len(drift) != 0 {
		t.Errorf("unset legacy fields reported as drift: %v", drift)
	}

	cross := host()
	cross.GOOS = "darwin"
	cross.GOARCH = "arm64"
	if drift := hostFingerprintDiff(host(), cross); len(drift) != 2 {
		t.Errorf("goos+goarch drift, got %v", drift)
	}
}

func TestDeltaStatus(t *testing.T) {
	cases := []struct {
		delta, threshold float64
		want             string
	}{
		{0.11, 0.10, "REGRESSION"},
		{-0.11, 0.10, "improvement"},
		{0.09, 0.10, "ok"},
		{-0.09, 0.10, "ok"},
		{0.10, 0.10, "ok"}, // boundary is inclusive noise
	}
	for _, c := range cases {
		if got := deltaStatus(c.delta, c.threshold); got != c.want {
			t.Errorf("deltaStatus(%v, %v) = %q, want %q", c.delta, c.threshold, got, c.want)
		}
	}
}

// TestKernelStoragesDerivedFromRequiredKeys pins the single-source-of-truth
// property: the storage variants the speedup report iterates come from
// requiredKeys, so adding a storage leg there automatically extends the
// report.
func TestKernelStoragesDerivedFromRequiredKeys(t *testing.T) {
	got := kernelStorages()
	want := []string{"flat"}
	if len(got) != len(want) {
		t.Fatalf("kernelStorages() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kernelStorages() = %v, want %v", got, want)
		}
	}
}
