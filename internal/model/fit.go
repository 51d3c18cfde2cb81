package model

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/doc"
	"repro/internal/proclus"
)

// Fit describes one servable fit: everything that can change its result,
// and nothing that cannot (the worker count, a deadline). cmd/sspc fills it
// from flags and cmd/sspcd decodes it from the POST /fit body, so both
// binaries run a fit and key its model the same way.
type Fit struct {
	// Algo is "sspc", "proclus" or "doc".
	Algo string `json:"algo"`
	K    int    `json:"k"`
	// Normalize names the preprocessing applied before the fit (see
	// dataset.Normalize); "" means "none".
	Normalize string `json:"normalize,omitempty"`
	// Scheme is SSPC's threshold scheme, "m" or "p" ("" means "m"), with
	// its parameter M or P.
	Scheme string  `json:"scheme,omitempty"`
	M      float64 `json:"m,omitempty"`
	P      float64 `json:"p,omitempty"`
	// L is PROCLUS's average cluster dimensionality; W is DOC's box
	// half-width.
	L int     `json:"l,omitempty"`
	W float64 `json:"w,omitempty"`

	Seed      int64 `json:"seed,omitempty"`
	Restarts  int   `json:"restarts,omitempty"`
	EarlyStop int   `json:"earlystop,omitempty"`

	// Knowledge holds the labeled objects and dimensions an SSPC fit
	// consumes, and Validate drops suspect labels before the fit
	// (core.RunValidatedContext). Only the CLI sets them.
	Knowledge *dataset.Knowledge `json:"-"`
	Validate  bool               `json:"-"`
}

// DefaultFit is the fit both binaries start from: threshold scheme m with
// core's default m and p, no normalization, and no algorithm.
func DefaultFit() Fit {
	def := core.DefaultOptions(0)
	return Fit{Scheme: "m", M: def.M, P: def.P, Normalize: "none"}
}

// Check rejects an algorithm without a servable model and an unknown
// threshold scheme. Every other value is checked by the algorithm itself.
func (f *Fit) Check() error {
	if f.Algo != "sspc" && f.Algo != "proclus" && f.Algo != "doc" {
		return fmt.Errorf("unknown algorithm %q (servable fits: sspc, proclus, doc)", f.Algo)
	}
	if f.Scheme != "" && f.Scheme != "m" && f.Scheme != "p" {
		return fmt.Errorf("unknown threshold scheme %q (m | p)", f.Scheme)
	}
	return nil
}

// Options is the canonical options string of the fit, the Options part of
// its model's registry key. It spells the values the fit runs with, so
// spellings of one fit (restarts 0 or 1, normalize "" or "none", scheme ""
// or "m", a parameter the algorithm ignores) give one string. An SSPC fit
// also records a SHA-256 digest of its labels when it has any, and
// validate=true under Validate.
func (f *Fit) Options() string {
	var b strings.Builder
	fmt.Fprintf(&b, "algo=%s k=%d", f.Algo, f.K)
	switch f.Algo {
	case "sspc":
		if f.Scheme == "p" {
			fmt.Fprintf(&b, " scheme=p p=%v", f.P)
		} else {
			fmt.Fprintf(&b, " scheme=m m=%v", f.M)
		}
	case "proclus":
		fmt.Fprintf(&b, " l=%d", f.L)
	case "doc":
		fmt.Fprintf(&b, " w=%v", f.W)
	}
	normalize := f.Normalize
	if normalize == "" {
		normalize = "none"
	}
	fmt.Fprintf(&b, " restarts=%d earlystop=%d normalize=%s", max(f.Restarts, 1), max(f.EarlyStop, 0), normalize)
	if f.Algo == "sspc" {
		if !f.Knowledge.Empty() {
			b.WriteString(" labels=" + labelDigest(f.Knowledge))
		}
		if f.Validate {
			b.WriteString(" validate=true")
		}
	}
	return b.String()
}

// labelDigest hashes kn class by class in ascending order, each class with
// its objects and dimensions ascending.
func labelDigest(kn *dataset.Knowledge) string {
	h := sha256.New()
	for _, c := range kn.Classes() {
		fmt.Fprintf(h, "class %d objects %v dims %v\n", c, kn.ObjectsOfClass(c), kn.DimsOfClass(c))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Run executes the fit on ds under ctx with up to workers goroutines; the
// worker count never changes the result. trace observes SSPC fits only.
// The knowledge report is non-nil only under Validate.
func (f *Fit) Run(ctx context.Context, ds *dataset.Dataset, workers int, trace *core.Trace) (*cluster.Result, *core.KnowledgeReport, error) {
	if err := f.Check(); err != nil {
		return nil, nil, err
	}
	var res *cluster.Result
	var err error
	switch f.Algo {
	case "sspc":
		opts := core.DefaultOptions(f.K)
		if f.Scheme == "p" {
			opts.Scheme, opts.P = core.SchemeP, f.P
		} else {
			opts.M = f.M
		}
		opts.Seed, opts.Restarts, opts.Workers, opts.EarlyStop = f.Seed, f.Restarts, workers, f.EarlyStop
		opts.Knowledge, opts.Trace = f.Knowledge, trace
		if f.Validate {
			return core.RunValidatedContext(ctx, ds, opts, 0)
		}
		res, err = core.RunContext(ctx, ds, opts)
	case "proclus":
		opts := proclus.DefaultOptions(f.K, f.L)
		opts.Seed, opts.Restarts, opts.Workers, opts.EarlyStop = f.Seed, f.Restarts, workers, f.EarlyStop
		res, err = proclus.RunContext(ctx, ds, opts)
	case "doc":
		opts := doc.DefaultOptions(f.K, f.W)
		opts.Seed, opts.Restarts, opts.Workers, opts.EarlyStop = f.Seed, f.Restarts, workers, f.EarlyStop
		res, err = doc.RunContext(ctx, ds, opts)
	}
	return res, nil, err
}
