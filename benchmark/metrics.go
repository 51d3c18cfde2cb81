package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricDef names one metric the benchmark reports. BENCHMARK.json lists the
// same names, units and directions (TestSpecMatchesCatalogue keeps the two
// in step) and adds each end-to-end metric's regression bound.
type metricDef struct {
	name, unit, better string
	// moves names, for a per-layer metric, the end-to-end metrics and
	// workloads a change in this layer should show up in. It is written down
	// before any measurement so a claimed gain can be checked against it.
	moves []target
}

type target struct{ metric, workload string }

// endToEnd is what a user of a fit or of sspcd sees. Each workload reports
// every one of them; "one operation" is a whole Cluster call on the fit
// workloads and a whole POST /assign on the serve workloads.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "rss_mb", unit: "MB", better: "lower"},
	{name: "ari_mean", unit: "ratio", better: "higher"},
}

// perLayer is what the -trace 1 run reports: each layer's public entry
// point timed or counted from outside, on the workload's own data.
var perLayer = []metricDef{
	{name: "core.init_ms", unit: "ms", better: "lower", moves: []target{{"latency_p50_ms", "fit-paper"}}},
	{name: "core.iter_ms", unit: "ms", better: "lower", moves: []target{{"latency_p50_ms", "fit-lowdim"}}},
	{name: "core.iterations", unit: "count", better: "lower", moves: []target{{"latency_p50_ms", "fit-paper"}, {"latency_p50_ms", "fit-lowdim"}}},
	{name: "core.fit_alloc_mb", unit: "MB", better: "lower", moves: []target{{"cpu_ms_per_op", "fit-paper"}, {"rss_mb", "fit-paper"}}},
	{name: "core.fit_allocs", unit: "count", better: "lower", moves: []target{{"cpu_ms_per_op", "fit-paper"}}},
	{name: "core.eval_ms", unit: "ms", better: "lower", moves: []target{{"latency_p50_ms", "fit-lowdim"}, {"cpu_ms_per_op", "fit-lowdim"}}},
	{name: "core.assign_ns_per_row", unit: "ns", better: "lower", moves: []target{{"latency_p50_ms", "fit-paper"}, {"cpu_ms_per_op", "serve-assign"}}},
	{name: "grid.build_ms", unit: "ms", better: "lower", moves: []target{{"latency_p50_ms", "fit-paper"}}},
	{name: "grid.build_allocs", unit: "count", better: "lower", moves: []target{{"cpu_ms_per_op", "fit-paper"}}},
	{name: "stats.median_us", unit: "us", better: "lower", moves: []target{{"latency_p50_ms", "fit-lowdim"}}},
	{name: "dataset.gather_rows_us", unit: "us", better: "lower", moves: []target{{"latency_p50_ms", "fit-lowdim"}}},
	{name: "dataset.median_vector_ms", unit: "ms", better: "lower", moves: []target{{"latency_p50_ms", "fit-lowdim"}}},
	{name: "engine.chunks_us", unit: "us", better: "lower", moves: []target{{"cpu_ms_per_op", "fit-paper"}, {"cpu_ms_per_op", "fit-lowdim"}}},
	{name: "model.encode_us", unit: "us", better: "lower", moves: []target{{"setup_s", "serve-assign"}, {"cpu_ms_per_op", "serve-mixed"}}},
	{name: "model.decode_us", unit: "us", better: "lower", moves: []target{{"setup_s", "serve-assign"}}},
	{name: "model.bytes", unit: "B", better: "lower", moves: []target{{"setup_s", "serve-assign"}}},
	{name: "binfmt.open_ms", unit: "ms", better: "lower", moves: []target{{"cpu_ms_per_op", "serve-mixed"}, {"latency_p50_ms", "serve-mixed"}}},
	{name: "binfmt.file_mb", unit: "MB", better: "lower", moves: []target{{"cpu_ms_per_op", "serve-mixed"}}},
	{name: "sspcd.healthz_us", unit: "us", better: "lower", moves: []target{{"latency_p50_ms", "serve-assign"}}},
	{name: "sspcd.assign_us", unit: "us", better: "lower", moves: []target{{"latency_p50_ms", "serve-assign"}, {"cpu_ms_per_op", "serve-assign"}}},
	{name: "sspcd.json_decode_us", unit: "us", better: "lower", moves: []target{{"cpu_ms_per_op", "serve-assign"}}},
	{name: "sspcd.job_poll_us", unit: "us", better: "lower", moves: []target{{"latency_p50_ms", "serve-mixed"}}},
	{name: "sspcd.fit_accept_ms", unit: "ms", better: "lower", moves: []target{{"latency_p50_ms", "serve-mixed"}}},
	{name: "sspcd.fit_job_ms", unit: "ms", better: "lower", moves: []target{{"cpu_ms_per_op", "serve-mixed"}, {"latency_p50_ms", "serve-mixed"}}},
}

// spec is the part of BENCHMARK.json the benchmark itself reads.
type spec struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []specEntry `json:"workloads"`
	EndToEnd   []specEntry `json:"end_to_end"`
	PerLayer   []specEntry `json:"per_layer"`
}

type specEntry struct {
	Name   string   `json:"name"`
	Why    string   `json:"why,omitempty"`
	Unit   string   `json:"unit,omitempty"`
	Better string   `json:"better,omitempty"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
