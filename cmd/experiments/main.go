// Command experiments regenerates the tables and figures of the SSPC paper
// (Yip, Cheung, Ng — ICDE 2005).
//
// Usage:
//
//	experiments -fig all                     # everything, quick scale
//	experiments -fig 3 -scale 1 -repeats 10  # Figure 3 at full paper scale
//	experiments -fig 5,6,7                   # a subset
//
// Figure ids: 1, 2, 3, 4, 5, 6, 7, 8a, 8b, outliers, noisy, styles, subspace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	var (
		fig     = flag.String("fig", "all", "comma-separated figure ids (1,2,3,4,5,6,7,8a,8b,outliers,noisy,styles,subspace) or 'all'")
		repeats = flag.Int("repeats", 3, "repeated runs per configuration (paper: 10)")
		scale   = flag.Float64("scale", 0.4, "dataset size scale (1.0 = paper)")
		seed    = flag.Int64("seed", 1, "master random seed")
		workers = flag.Int("workers", 0, "concurrent (algorithm × dataset × seed) cells; 0 = GOMAXPROCS. Tables are identical for every value")
		early   = flag.Int("earlystop", 0, "stop each best-of-repeats protocol once its objective has not improved for this many consecutive repeats; -repeats stays the cap. 0 = paper's fixed-repeat protocol")
	)
	flag.Parse()

	cfg := experiments.Config{Repeats: *repeats, Scale: *scale, Seed: *seed, Workers: *workers, EarlyStop: *early}

	type figure struct {
		id  string
		run func(context.Context, experiments.Config) (*experiments.Table, error)
	}
	all := []figure{
		{"1", func(ctx context.Context, _ experiments.Config) (*experiments.Table, error) {
			return experiments.Figure1Context(ctx)
		}},
		{"2", func(ctx context.Context, _ experiments.Config) (*experiments.Table, error) {
			return experiments.Figure2Context(ctx)
		}},
		{"3", experiments.Figure3Context},
		{"4", experiments.Figure4Context},
		{"outliers", experiments.OutlierImmunityContext},
		{"5", experiments.Figure5Context},
		{"6", experiments.Figure6Context},
		{"7", experiments.Figure7Context},
		{"8a", experiments.Figure8aContext},
		{"8b", experiments.Figure8bContext},
		{"noisy", experiments.NoisyInputsContext},
		{"styles", experiments.SupervisionStylesContext},
		{"subspace", experiments.SubspaceBaselinesContext},
	}

	want := map[string]bool{}
	if *fig != "all" {
		for _, id := range strings.Split(*fig, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	ran := 0
	for _, f := range all {
		if *fig != "all" && !want[f.id] {
			continue
		}
		t, err := f.run(context.Background(), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", f.id, err)
			os.Exit(1)
		}
		if _, err := t.WriteTo(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "experiments: no figure matched %q\n", *fig)
		os.Exit(2)
	}
}
