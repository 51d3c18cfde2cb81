// Command sspc clusters a CSV dataset with SSPC or one of the baseline
// algorithms (PROCLUS, HARP, CLARANS, DOC, CLIQUE, COP-KMeans,
// Seeded-/Constrained-KMeans, Cheng–Church biclustering).
//
// Usage:
//
//	sspc -in data.csv -k 5                           # SSPC, scheme m=0.5
//	sspc -in data.csv -k 5 -scheme p -p 0.05
//	sspc -in data.csv -k 5 -algo proclus -l 10
//	sspc -in labeled.csv -k 5 -truth                  # last column = label, report ARI
//	sspc -in data.csv -k 5 -knowledge kn.txt          # semi-supervised
//	sspc -in data.csv -k 3 -algo copkmeans -constraints pairs.txt
//	sspc -in data.csv -k 3 -algo seedkmeans -seeds seeds.txt -constrained
//	sspc -in data.csv -k 3 -algo bicluster -delta 50
//	sspc -in data.csv -k 5 -save fit.sspcm            # persist the fitted model
//	sspc -in new.csv -load fit.sspcm                  # score rows, no refit
//	sspc -data big.sspcb -k 5                         # mmap a binary dataset (out-of-core)
//	sspc -in data.csv -k 5 -timeout 5m                # bound the fit with a deadline
//
// -data opens a .sspcb binary dataset (see cmd/datagen -convert and
// docs/DATASETS.md) instead of parsing CSV: the file is verified and mapped
// read-only, so datasets larger than RAM cluster with peak heap near the
// working set. Results are byte-identical to loading the same values flat.
// -data excludes -in, -truth (the binary format carries no label column) and
// -normalize (the mapping is immutable; normalize before converting).
//
// The knowledge file has one entry per line:
//
//	object <objectIndex> <class>
//	dim <dimIndex> <class>
//
// The constraints file has one pair per line ("must <i> <j>" or
// "cannot <i> <j>"), and the seeds file one class per line
// ("<class> <obj> [<obj> ...]"). All three supervision flags can be mixed;
// they merge into one supervision set that each algorithm consumes in its
// own form (labels, pairwise constraints, or seed sets).
//
// Output: one line per object "<index> <cluster>" (−1 = outlier), followed
// by the selected dimensions of each cluster and summary statistics.
//
// -save writes the fitted model — algorithm, options, seed, assignments, and
// the per-cluster (dims, rep, ŝ²) scoring triples — in internal/model's
// versioned container; sspc, proclus and doc emit servable models. -load
// skips fitting entirely and scores the input rows with a saved model (the
// same Step-3 rule cmd/sspcd serves over HTTP), byte-identical to the fit
// that produced the model.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/bicluster"
	"repro/internal/clarans"
	"repro/internal/clique"
	"repro/internal/cluster"
	"repro/internal/copkmeans"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dataset/binfmt"
	"repro/internal/eval"
	"repro/internal/harp"
	"repro/internal/model"
	"repro/internal/seedkmeans"
)

func main() {
	def := model.DefaultFit()
	var (
		in          = flag.String("in", "", "input CSV path (this or -data required)")
		data        = flag.String("data", "", "input binary dataset path (.sspcb), opened mmap-backed; excludes -in/-truth/-normalize")
		header      = flag.Bool("header", false, "input has a header row")
		truth       = flag.Bool("truth", false, "last CSV column is the true class label; report ARI")
		algo        = flag.String("algo", "sspc", "algorithm: sspc | proclus | harp | clarans | doc | clique | copkmeans | seedkmeans | bicluster")
		k           = flag.Int("k", 0, "number of clusters (required)")
		scheme      = flag.String("scheme", def.Scheme, "SSPC threshold scheme: m | p")
		m           = flag.Float64("m", def.M, "SSPC parameter m (scheme m)")
		p           = flag.Float64("p", def.P, "SSPC parameter p (scheme p)")
		l           = flag.Int("l", 0, "PROCLUS average cluster dimensionality (required for proclus)")
		w           = flag.Float64("w", 0, "DOC box half-width (required for doc)")
		xi          = flag.Int("xi", 0, "CLIQUE grid intervals per dimension; 0 = default")
		tau         = flag.Float64("tau", 0, "CLIQUE density threshold fraction; 0 = default")
		delta       = flag.Float64("delta", 0, "bicluster mean-squared-residue threshold δ")
		seed        = flag.Int64("seed", 1, "random seed")
		restarts    = flag.Int("restarts", 0, "independent randomized restarts; best result by the algorithm's objective wins. 0 = algorithm default (1; clarans: the paper's numlocal, 2). clique runs once and ignores -seed, -restarts and -workers")
		workers     = flag.Int("workers", 0, "concurrent restarts (for sspc, proclus, copkmeans and seedkmeans, spare workers split the loops inside a restart); 0 = all CPUs. clique ignores it. Never changes the result, only the wall-clock time")
		earlyStop   = flag.Int("earlystop", 0, "sspc/proclus/doc: stop streaming restarts once the objective has not improved for this many consecutive restarts; -restarts stays the cap. 0 = run all restarts")
		knowledge   = flag.String("knowledge", "", "knowledge file (object/dim labels): sspc, seedkmeans, copkmeans")
		constraints = flag.String("constraints", "", "constraints file (must/cannot pairs): copkmeans, sspc, seedkmeans")
		seeds       = flag.String("seeds", "", "seed-set file (class + objects per line): seedkmeans, sspc, copkmeans")
		constrained = flag.Bool("constrained", false, "seedkmeans: clamp labeled objects to their class (Constrained-KMeans)")
		normalize   = flag.String("normalize", def.Normalize, "preprocessing: none | zscore | minmax | robust")
		validate    = flag.Bool("validate", false, "validate knowledge and drop suspect entries before clustering (SSPC only)")
		quiet       = flag.Bool("quiet", false, "suppress per-object assignments")
		save        = flag.String("save", "", "after fitting, write the model (per-cluster dims/rep/ŝ² triples) to this file; sspc, proclus and doc only")
		timeout     = flag.Duration("timeout", 0, "abort the fit after this long (e.g. 30s, 5m) with a deadline error; cancellation is observed at restart, iteration, and chunk boundaries. 0 = no deadline")
		load        = flag.String("load", "", "skip fitting: load a saved model file and assign the input rows with it (-k not required)")
	)
	flag.Parse()

	seedFlagSet := func() bool {
		set := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "seed" {
				set = true
			}
		})
		return set
	}

	if (*in == "") == (*data == "") || (*k <= 0 && *load == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *scheme != "" && *scheme != "m" && *scheme != "p" {
		fail(fmt.Errorf("unknown threshold scheme %q (m | p)", *scheme))
	}

	var ds *dataset.Dataset
	var labels []int
	// contentHash, when non-empty, is the dataset fingerprint -save records;
	// it comes from the binary header so the disk path never rescans the data.
	var contentHash string
	if *data != "" {
		// Binary path: the file is verified and mapped read-only; every
		// CSV-era preprocessing knob is a hard error rather than a silent
		// no-op (normalize before converting instead).
		if *truth {
			fail(fmt.Errorf("-data: the binary format carries no label column; -truth needs -in"))
		}
		if *normalize != "none" {
			fail(fmt.Errorf("-data: the mapped dataset is immutable; normalize before converting (-normalize none only)"))
		}
		fl, err := binfmt.OpenBinary(*data)
		if err != nil {
			fail(err)
		}
		defer fl.Close()
		ds = fl.Dataset()
		contentHash = fl.ContentHash()
	} else {
		f, err := os.Open(*in)
		if err != nil {
			fail(err)
		}
		defer f.Close()

		if *truth {
			ds, labels, err = dataset.ReadLabeledCSV(bufio.NewReader(f), *header)
		} else {
			ds, err = dataset.ReadCSV(bufio.NewReader(f), *header)
		}
		if err == nil {
			ds, err = dataset.Normalize(ds, *normalize)
		}
		if err != nil {
			fail(err)
		}
	}

	// Serving path: a saved model replaces the fit entirely — decode it,
	// score every input row on the allocation-free assigner, and report in
	// the same per-object format as a fit.
	if *load != "" {
		if err := serveModel(*load, ds, labels, *truth, *quiet); err != nil {
			fail(err)
		}
		return
	}

	// Merge every supplied supervision source into one Supervision value;
	// each algorithm below converts it to the form it consumes.
	sup := &core.Supervision{}
	if *knowledge != "" {
		kn, err := readKnowledge(*knowledge)
		if err != nil {
			fail(err)
		}
		sup.Knowledge = kn
	}
	if *constraints != "" {
		must, cannot, err := readConstraints(*constraints)
		if err != nil {
			fail(err)
		}
		sup.MustLink, sup.CannotLink = must, cannot
	}
	if *seeds != "" {
		sets, err := readSeedSets(*seeds)
		if err != nil {
			fail(err)
		}
		sup.SeedSets = sets
	}
	if !sup.Empty() {
		if err := sup.Validate(ds.N(), ds.D(), *k); err != nil {
			fail(err)
		}
	}

	// -timeout bounds the fit through the shared cancellation contract: the
	// deadline is observed at restart launches, iteration boundaries, and
	// chunk boundaries, and an expired fit exits with a deadline error
	// instead of a partial result.
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// sspc, proclus and doc run through model.Fit, which also makes the
	// options string -save records.
	fit := model.Fit{Algo: *algo, K: *k, Normalize: *normalize, Scheme: *scheme, M: *m, P: *p, L: *l, W: *w,
		Seed: *seed, Restarts: *restarts, EarlyStop: *earlyStop, Validate: *validate}
	var err error
	if *algo == "sspc" && !sup.Empty() {
		if fit.Knowledge, err = sup.AsKnowledge(); err != nil {
			fail(err)
		}
	}
	var res *cluster.Result
	var report *core.KnowledgeReport
	switch *algo {
	case "sspc", "proclus", "doc":
		res, report, err = fit.Run(ctx, ds, *workers, nil)
	case "harp":
		opts := harp.DefaultOptions(*k)
		opts.Restarts = *restarts
		opts.Workers = *workers
		// With seed 0, restart 0 stays on HARP's canonical deterministic
		// scan order and only the extra restarts draw randomized orders —
		// so more restarts can never lose to fewer. An explicit nonzero
		// -seed opts into the fully randomized family instead (seed 0 is
		// the canonical family by definition).
		if seedFlagSet() {
			opts.Seed = *seed
		}
		res, err = harp.RunContext(ctx, ds, opts)
	case "clarans":
		opts := clarans.DefaultOptions(*k)
		opts.Seed = *seed
		opts.Restarts = *restarts
		opts.Workers = *workers
		res, err = clarans.RunContext(ctx, ds, opts)
	case "clique":
		opts := clique.DefaultOptions()
		if *xi > 0 {
			opts.Xi = *xi
		}
		if *tau > 0 {
			opts.Tau = *tau
		}
		opts.MaxClusters = *k
		_, res, err = clique.RunContext(ctx, ds, opts)
	case "copkmeans":
		must, cannot, cerr := sup.AsConstraints()
		if cerr != nil {
			fail(cerr)
		}
		opts := copkmeans.DefaultOptions(*k)
		opts.Seed = *seed
		opts.Restarts = *restarts
		opts.Workers = *workers
		opts.EarlyStop = *earlyStop
		res, err = copkmeans.RunContext(ctx, ds, &copkmeans.Constraints{MustLink: must, CannotLink: cannot}, opts)
	case "seedkmeans":
		kn, kerr := sup.AsKnowledge()
		if kerr != nil {
			fail(kerr)
		}
		opts := seedkmeans.DefaultOptions(*k)
		opts.Constrained = *constrained
		opts.Seed = *seed
		opts.Restarts = *restarts
		opts.Workers = *workers
		opts.EarlyStop = *earlyStop
		res, err = seedkmeans.RunContext(ctx, ds, kn, opts)
	case "bicluster":
		opts := bicluster.DefaultOptions(*k, *delta)
		opts.Seed = *seed
		opts.Restarts = *restarts
		opts.Workers = *workers
		_, res, err = bicluster.RunContext(ctx, ds, opts)
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if err != nil {
		fail(err)
	}

	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if !*quiet {
		for i, a := range res.Assignments {
			fmt.Fprintf(out, "%d %d\n", i, a)
		}
	}
	sizes, outliers := res.Sizes()
	// k is what the run produced (CLIQUE's MaxClusters cap and biclustering
	// can return fewer clusters than asked for); requested_k echoes the flag.
	fmt.Fprintf(out, "# algorithm=%s k=%d requested_k=%d score=%.6f iterations=%d\n",
		*algo, len(sizes), *k, res.Score, res.Iterations)
	for c, s := range sizes {
		fmt.Fprintf(out, "# cluster %d: %d objects", c, s)
		if res.Dims != nil {
			fmt.Fprintf(out, ", dims %v", res.Dims[c])
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "# outliers: %d\n", outliers)
	if report != nil && !report.Clean() {
		fmt.Fprintf(out, "# validation dropped %d objects, %d dims\n",
			len(report.SuspectObjects), len(report.SuspectDims))
	}
	if *truth {
		a, err := eval.ARI(labels, res.Assignments)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "# ARI=%.4f\n", a)
	}

	if *save != "" {
		if res.Fitted == nil {
			fail(fmt.Errorf("-save: algorithm %q does not emit a servable model (sspc, proclus and doc do)", *algo))
		}
		// Binary inputs carry their fingerprint in the verified header
		// (shard-layout-invariant payload checksum) — no full rescan; CSV
		// inputs hash the in-memory matrix as before.
		hash := contentHash
		if hash == "" {
			hash = model.DatasetHash(ds)
		}
		mdl, err := model.FromResult(*algo, fit.Options(), *seed, hash, ds.D(), res)
		if err != nil {
			fail(err)
		}
		if err := mdl.Save(*save); err != nil {
			fail(err)
		}
		fmt.Fprintf(out, "# saved model %s key=%s\n", *save, mdl.Key())
	}
}

// serveModel is the -load path: decode a saved model, check it against the
// input's dimensionality, assign every row with the serving assigner, and
// report in the fit path's per-object format (plus the model's identity, so
// output is attributable to the exact fit that produced it).
func serveModel(path string, ds *dataset.Dataset, labels []int, truth, quiet bool) error {
	mdl, err := model.Load(path)
	if err != nil {
		return err
	}
	if ds.D() != mdl.D {
		return fmt.Errorf("-load: input has %d columns, model %s needs %d", ds.D(), path, mdl.D)
	}
	a, err := mdl.Assigner()
	if err != nil {
		return err
	}
	assign := make([]int, ds.N())
	for x := range assign {
		if assign[x], err = a.AssignPoint(ds.Row(x)); err != nil {
			return err
		}
	}
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if !quiet {
		for i, c := range assign {
			fmt.Fprintf(out, "%d %d\n", i, c)
		}
	}
	sizes := make([]int, mdl.K)
	outliers := 0
	for _, c := range assign {
		if c == cluster.Outlier {
			outliers++
		} else {
			sizes[c]++
		}
	}
	fmt.Fprintf(out, "# model=%s algorithm=%s k=%d seed=%d key=%s\n",
		path, mdl.Algo, mdl.K, mdl.Seed, mdl.Key())
	for c, s := range sizes {
		fmt.Fprintf(out, "# cluster %d: %d objects, dims %v\n", c, s, mdl.Clusters[c].Dims)
	}
	fmt.Fprintf(out, "# outliers: %d\n", outliers)
	if truth {
		ari, err := eval.ARI(labels, assign)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "# ARI=%.4f\n", ari)
	}
	return nil
}

// readKnowledge loads an "object <id> <class>" / "dim <id> <class>" file via
// core.ParseKnowledge. (The former fmt.Sscanf parser silently accepted
// malformed lines: trailing junk after the class was ignored and glued
// garbage like "3x" parsed as its digit prefix; the core parser rejects
// both, with the same strictness as ParseConstraints/ParseSeedSets.)
func readKnowledge(path string) (*dataset.Knowledge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	kn, err := core.ParseKnowledge(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return kn, nil
}

// readConstraints loads a must/cannot pair file via core.ParseConstraints.
func readConstraints(path string) (must, cannot [][2]int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	must, cannot, err = core.ParseConstraints(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return must, cannot, nil
}

// readSeedSets loads a seed-set file via core.ParseSeedSets.
func readSeedSets(path string) (map[int][]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sets, err := core.ParseSeedSets(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sets, nil
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "sspc: %v\n", err)
	os.Exit(1)
}
