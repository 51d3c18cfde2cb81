package main

import (
	"io"
	"strings"
	"testing"
)

func runsOf(metric string, vals ...float64) []record {
	var recs []record
	for _, v := range vals {
		recs = append(recs, record{Workload: "w", result: result{Metrics: map[string]value{metric: {v, "ms"}}}})
	}
	return recs
}

func TestCompareGatesOnBoundAndSpread(t *testing.T) {
	bound := 0.1
	sp := &spec{
		Workloads: []specEntry{{Name: "w"}},
		EndToEnd: []specEntry{
			{Name: "latency_p50_ms", Better: "lower", Bound: &bound},
			{Name: "ari_mean", Better: "higher", Bound: &bound},
			{Name: "setup_s", Better: "lower", Bound: &bound},
		},
	}
	for _, c := range []struct {
		name    string
		a, b    []record
		problem string // "" when the sets agree
	}{
		{"same", runsOf("latency_p50_ms", 10, 10.1, 9.9), runsOf("latency_p50_ms", 10.2, 10, 9.95), ""},
		{"slower beyond bound", runsOf("latency_p50_ms", 10, 10.1, 9.9), runsOf("latency_p50_ms", 11.5, 11.6, 11.4), "WORSE"},
		{"faster beyond bound", runsOf("latency_p50_ms", 10, 10.1, 9.9), runsOf("latency_p50_ms", 8, 8.1, 7.9), ""},
		{"lower quality", runsOf("ari_mean", 1, 1, 1), runsOf("ari_mean", 0.8, 0.8, 0.8), "WORSE"},
		{"noisy", runsOf("latency_p50_ms", 10, 5, 15, 10), runsOf("latency_p50_ms", 10, 10, 10), "SPREAD"},
		{"noisy set-up is exempt", runsOf("setup_s", 1, 0.5, 1.5, 1), runsOf("setup_s", 1, 1, 1), ""},
	} {
		err := compare(io.Discard, sp, c.a, c.b)
		if c.problem == "" && err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if c.problem != "" && (err == nil || !strings.Contains(err.Error(), c.problem)) {
			t.Errorf("%s: got %v, want a %s finding", c.name, err, c.problem)
		}
	}
}
