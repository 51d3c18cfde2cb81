package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// keysOf returns the sorted keys of a JSON object.
func keysOf(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("not a JSON object: %s", raw)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// BENCHMARK.json keeps to its schema: exact keys, name and unit alphabets,
// list sizes, bounds, and paths that stay inside the repository.
func TestSpecSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if got := keysOf(t, raw); got != "command,end_to_end,paths,per_layer,run_seconds,workloads" {
		t.Errorf("top-level keys %s", got)
	}
	var lists struct {
		Workloads, EndToEnd, PerLayer []json.RawMessage
	}
	var top map[string]json.RawMessage
	json.Unmarshal(raw, &top)
	json.Unmarshal(top["workloads"], &lists.Workloads)
	json.Unmarshal(top["end_to_end"], &lists.EndToEnd)
	json.Unmarshal(top["per_layer"], &lists.PerLayer)
	for _, c := range []struct {
		entries  []json.RawMessage
		keys     string
		min, max int
	}{
		{lists.Workloads, "name,why", 2, 8},
		{lists.EndToEnd, "better,bound,name,unit", 1, 16},
		{lists.PerLayer, "better,name,unit", 1, 128},
	} {
		if n := len(c.entries); n < c.min || n > c.max {
			t.Errorf("%d entries with keys %s, want %d..%d", n, c.keys, c.min, c.max)
		}
		for _, e := range c.entries {
			if got := keysOf(t, e); got != c.keys {
				t.Errorf("entry %s has keys %s, want %s", e, got, c.keys)
			}
		}
	}

	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", sp.RunSeconds)
	}
	seen := map[string]bool{}
	for _, e := range append(append(append([]specEntry(nil), sp.Workloads...), sp.EndToEnd...), sp.PerLayer...) {
		if !nameRE.MatchString(e.Name) || seen[e.Name] {
			t.Errorf("name %q is malformed or used twice", e.Name)
		}
		seen[e.Name] = true
	}
	for _, w := range sp.Workloads {
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	largest := 0.0
	for _, m := range append(append([]specEntry(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %s: unit %q or better %q malformed", m.Name, m.Unit, m.Better)
		}
	}
	for _, m := range sp.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v out of (0, 0.25]", m.Name, *m.Bound)
		}
		largest = max(largest, *m.Bound)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && *m.Bound == largest
		}
	}
	if !setup {
		t.Error("setup_s must be an end-to-end metric in s, lower is better, with the largest bound")
	}

	if len(sp.Paths) < 1 || len(sp.Paths) > 16 {
		t.Errorf("%d paths, want 1..16", len(sp.Paths))
	}
	for _, p := range sp.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q must be relative, inside the repository, of allowed characters", p)
		}
	}
	if len(sp.Command) < 1 || len(sp.Command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(sp.Command))
	}
	for _, arg := range sp.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q must be short and relative", arg)
		}
		if strings.Contains(arg, "/") && !underAny(arg, sp.Paths) {
			t.Errorf("command argument %q names a file outside paths", arg)
		}
	}
}

func underAny(file string, dirs []string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(file, strings.TrimSuffix(d, "/")+"/") {
			return true
		}
	}
	return false
}

// The program's own metric and workload tables agree with BENCHMARK.json,
// and every per-layer metric names the end-to-end metrics and workloads it
// should move, each of which exists.
func TestSpecMatchesCatalogue(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var specNames []string
	wl := map[string]bool{}
	for _, w := range sp.Workloads {
		specNames = append(specNames, w.Name)
		wl[w.Name] = true
	}
	if strings.Join(names, ",") != strings.Join(specNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", names, specNames)
	}
	e2e := map[string]bool{}
	for _, c := range []struct {
		defs []metricDef
		spec []specEntry
	}{{endToEnd, sp.EndToEnd}, {perLayer, sp.PerLayer}} {
		if len(c.defs) != len(c.spec) {
			t.Errorf("%d metrics in the program, %d in BENCHMARK.json", len(c.defs), len(c.spec))
			continue
		}
		for i, d := range c.defs {
			s := c.spec[i]
			if d.name != s.Name || d.unit != s.Unit || d.better != s.Better {
				t.Errorf("metric %d: program has %s %s %s, BENCHMARK.json %s %s %s", i, d.name, d.unit, d.better, s.Name, s.Unit, s.Better)
			}
		}
	}
	for _, m := range endToEnd {
		e2e[m.name] = true
	}
	for _, m := range perLayer {
		if len(m.moves) == 0 {
			t.Errorf("per-layer metric %s names no end-to-end metric it moves", m.name)
		}
		for _, tg := range m.moves {
			if !e2e[tg.metric] || !wl[tg.workload] {
				t.Errorf("per-layer metric %s moves unknown %s on %s", m.name, tg.metric, tg.workload)
			}
		}
	}
}
