package model

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/doc"
	"repro/internal/proclus"
	"repro/internal/synth"
)

// sspcFit is DefaultFit as an SSPC fit with k clusters.
func sspcFit(k int) Fit {
	f := DefaultFit()
	f.Algo, f.K = "sspc", k
	return f
}

// TestFitOptions pins the canonical options string of each servable
// algorithm, and checks that spellings of one fit give one string.
func TestFitOptions(t *testing.T) {
	schemeP := sspcFit(5)
	schemeP.Scheme, schemeP.P, schemeP.Normalize, schemeP.Restarts, schemeP.EarlyStop = "p", 0.05, "zscore", 4, 2
	pinned := []struct {
		fit  Fit
		want string
	}{
		{sspcFit(3), "algo=sspc k=3 scheme=m m=0.5 restarts=1 earlystop=0 normalize=none"},
		{schemeP, "algo=sspc k=5 scheme=p p=0.05 restarts=4 earlystop=2 normalize=zscore"},
		{Fit{Algo: "proclus", K: 4, L: 6, Restarts: 3, Normalize: "minmax"}, "algo=proclus k=4 l=6 restarts=3 earlystop=0 normalize=minmax"},
		{Fit{Algo: "doc", K: 2, W: 1.5, EarlyStop: -1}, "algo=doc k=2 w=1.5 restarts=1 earlystop=0 normalize=none"},
	}
	for _, tc := range pinned {
		if got := tc.fit.Options(); got != tc.want {
			t.Errorf("%+v: options %q, want %q", tc.fit, got, tc.want)
		}
	}

	spelling := func(edit func(*Fit)) Fit {
		f := sspcFit(3)
		edit(&f)
		return f
	}
	for name, pair := range map[string][2]Fit{
		"restarts 0 and 1":   {spelling(func(f *Fit) { f.Restarts = 0 }), spelling(func(f *Fit) { f.Restarts = 1 })},
		"normalize \"\"":     {spelling(func(f *Fit) { f.Normalize = "" }), spelling(func(f *Fit) { f.Normalize = "none" })},
		"scheme \"\"":        {spelling(func(f *Fit) { f.Scheme = "" }), spelling(func(f *Fit) { f.Scheme = "m" })},
		"p under scheme m":   {spelling(func(f *Fit) { f.P = 0.3 }), spelling(func(f *Fit) {})},
		"proclus ignores m":  {{Algo: "proclus", K: 3, L: 4, M: 0.5}, {Algo: "proclus", K: 3, L: 4, M: 0.9}},
		"earlystop negative": {spelling(func(f *Fit) { f.EarlyStop = -3 }), spelling(func(f *Fit) {})},
	} {
		if a, b := pair[0].Options(), pair[1].Options(); a != b {
			t.Errorf("%s: one fit gives two strings %q and %q", name, a, b)
		}
	}
}

// TestModelOptionsSeparatesSupervision: a model's options string — and with
// it the registry key — tells apart SSPC fits that consumed different labels
// or ran with Validate, while the same labels reached as seed sets or as
// knowledge give one string.
func TestModelOptionsSeparatesSupervision(t *testing.T) {
	const unsupervised = "algo=sspc k=3 scheme=m m=0.5 restarts=1 earlystop=0 normalize=none"
	options := func(sup *core.Supervision, validate bool) string {
		t.Helper()
		f := sspcFit(3)
		var err error
		if f.Knowledge, err = sup.AsKnowledge(); err != nil {
			t.Fatal(err)
		}
		f.Validate = validate
		return f.Options()
	}
	if none := options(&core.Supervision{}, false); none != unsupervised {
		t.Errorf("unsupervised options = %q, want %q", none, unsupervised)
	}

	knowledge := func(content string) *core.Supervision {
		t.Helper()
		kn, err := core.ParseKnowledge(strings.NewReader(content))
		if err != nil {
			t.Fatal(err)
		}
		return &core.Supervision{Knowledge: kn}
	}
	a := options(knowledge("object 1 0\nobject 2 0\nobject 7 1\n"), false)
	b := options(knowledge("object 1 0\nobject 2 1\nobject 7 1\n"), false)
	dims := options(knowledge("object 1 0\nobject 2 0\nobject 7 1\ndim 4 1\n"), false)
	for _, fp := range []string{a, b, dims} {
		if !strings.HasPrefix(fp, unsupervised+" labels=") {
			t.Errorf("supervised options %q do not extend %q with a label digest", fp, unsupervised)
		}
	}
	if a == b || a == dims || b == dims {
		t.Errorf("different labels share an options string: %q, %q, %q", a, b, dims)
	}

	sets, err := core.ParseSeedSets(strings.NewReader("0 1 2\n1 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if seeded := options(&core.Supervision{SeedSets: sets}, false); seeded != a {
		t.Errorf("seed-set options = %q, want the knowledge string %q for the same labels", seeded, a)
	}

	if got := options(&core.Supervision{}, true); got != unsupervised+" validate=true" {
		t.Errorf("validate options = %q, want %q", got, unsupervised+" validate=true")
	}
	if got := options(knowledge("object 1 0\nobject 2 0\nobject 7 1\n"), true); got != a+" validate=true" {
		t.Errorf("validate options with labels = %q, want %q", got, a+" validate=true")
	}
}

func TestDefaultFitAndCheck(t *testing.T) {
	def := core.DefaultOptions(0)
	if got, want := DefaultFit(), (Fit{Scheme: "m", M: def.M, P: def.P, Normalize: "none"}); !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultFit() = %+v, want %+v", got, want)
	}
	for _, algo := range []string{"sspc", "proclus", "doc"} {
		for _, scheme := range []string{"", "m", "p"} {
			f := Fit{Algo: algo, Scheme: scheme}
			if err := f.Check(); err != nil {
				t.Errorf("%+v: %v", f, err)
			}
		}
	}
	for _, f := range []Fit{{Algo: "harp"}, {Algo: ""}, {Algo: "SSPC"}, {Algo: "sspc", Scheme: "q"}} {
		if err := f.Check(); err == nil {
			t.Errorf("%+v passed Check", f)
		}
	}
}

// TestFitRunMapsOptions: Run gives each algorithm the options its own
// DefaultOptions plus the fit's values describe, so its result equals a
// direct call's.
func TestFitRunMapsOptions(t *testing.T) {
	gt, err := synth.Generate(synth.Config{N: 150, D: 12, K: 3, AvgDims: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ds, ctx := gt.Data, context.Background()
	schemeP := core.DefaultOptions(3)
	schemeP.Scheme, schemeP.P, schemeP.Seed, schemeP.Restarts = core.SchemeP, 0.2, 4, 2
	pOpts := proclus.DefaultOptions(3, 4)
	pOpts.Seed, pOpts.Restarts = 4, 2
	dOpts := doc.DefaultOptions(3, 2)
	dOpts.Seed = 4
	for _, tc := range []struct {
		fit    Fit
		direct func() (*cluster.Result, error)
	}{
		{Fit{Algo: "sspc", K: 3, Scheme: "p", M: -1, P: 0.2, Seed: 4, Restarts: 2},
			func() (*cluster.Result, error) { return core.RunContext(ctx, ds, schemeP) }},
		{Fit{Algo: "proclus", K: 3, L: 4, Seed: 4, Restarts: 2},
			func() (*cluster.Result, error) { return proclus.RunContext(ctx, ds, pOpts) }},
		{Fit{Algo: "doc", K: 3, W: 2, Seed: 4},
			func() (*cluster.Result, error) { return doc.RunContext(ctx, ds, dOpts) }},
	} {
		got, report, err := tc.fit.Run(ctx, ds, 2, nil)
		if err != nil || report != nil {
			t.Fatalf("%s: report %v, error %v", tc.fit.Algo, report, err)
		}
		want, err := tc.direct()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Run differs from the direct call", tc.fit.Algo)
		}
	}

	validated := sspcFit(3)
	validated.Validate = true
	validated.Knowledge = dataset.NewKnowledge()
	validated.Knowledge.LabelObject(0, gt.Labels[0])
	if _, report, err := validated.Run(ctx, ds, 1, nil); err != nil || report == nil {
		t.Errorf("validated run: report %v, error %v", report, err)
	}
	if _, _, err := (&Fit{Algo: "harp", K: 3}).Run(ctx, ds, 1, nil); err == nil {
		t.Error("Run accepted an algorithm without a servable model")
	}
}
