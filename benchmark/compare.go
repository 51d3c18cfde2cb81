package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// runCompare implements -compare A.json... -- B.json...: it loads two sets of
// result files written by -out and compares them with the bounds from
// BENCHMARK.json in the working directory.
func runCompare(args []string, stdout, stderr io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
			break
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(stderr, "benchmark: usage: -compare A.json... -- B.json...")
		return 2
	}
	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	a, err := loadRecords(args[:split])
	if err == nil {
		var b []record
		b, err = loadRecords(args[split+1:])
		if err == nil {
			err = compare(stdout, sp, a, b)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func loadRecords(paths []string) ([]record, error) {
	var all []record
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var recs []record
		if err := json.Unmarshal(raw, &recs); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		all = append(all, recs...)
	}
	return all, nil
}

// samples gathers one metric's values for one workload across records.
func samples(recs []record, workload, metric string) []float64 {
	var xs []float64
	for _, rec := range recs {
		if v, ok := rec.Metrics[metric]; ok && rec.Workload == workload {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// compare prints, for every workload and metric, each set's median and
// quartiles and the change of B's median against A's. For end-to-end
// metrics it returns an error when B's median is worse than A's by more
// than the metric's bound, or when either set's spread — the distance
// between its quartiles as a share of its median — exceeds the bound
// (setup_s is exempt from the spread rule). Per-layer metrics are printed
// and never gate.
func compare(w io.Writer, sp *spec, a, b []record) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tB median\tB q1..q3\tchange\tbound\tverdict")
	var problems []string
	for _, wl := range sp.Workloads {
		for _, m := range append(append([]specEntry(nil), sp.EndToEnd...), sp.PerLayer...) {
			xa, xb := samples(a, wl.Name, m.Name), samples(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			a1, a3 := quartiles(xa)
			b1, b3 := quartiles(xb)
			change := mb/ma - 1
			verdict, bound := "-", "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
				verdict = "ok"
				worse := change
				if m.Better == "higher" {
					worse = -change
				}
				switch {
				case worse > *m.Bound:
					verdict = "WORSE"
				case m.Name != "setup_s" && (spread(a1, a3, ma) > *m.Bound || spread(b1, b3, mb) > *m.Bound):
					verdict = "SPREAD"
				}
				if verdict != "ok" {
					problems = append(problems, fmt.Sprintf("%s %s %s", wl.Name, m.Name, verdict))
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%+.1f%%\t%s\t%s\n",
				wl.Name, m.Name, ma, a1, a3, mb, b1, b3, change*100, bound, verdict)
		}
	}
	tw.Flush()
	if len(problems) > 0 {
		return fmt.Errorf("%d metric(s) beyond their bound: %v", len(problems), problems)
	}
	return nil
}

// spread is the interquartile distance as a share of the median.
func spread(q1, q3, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs(q3-q1) / math.Abs(med)
}
