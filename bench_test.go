package sspc

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"repro/internal/copkmeans"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
)

// The figure benchmarks regenerate every table/figure of the paper at a
// reduced-but-shape-preserving scale (see EXPERIMENTS.md for full-scale
// paper-vs-measured numbers from cmd/experiments).

// benchCfg is the reduced configuration used by the per-figure benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Repeats: 1, Scale: 0.25, Seed: 1}
}

func runFigure(b *testing.B, fn func() (*experiments.Table, error)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure1(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure1Context(context.Background())
	})
}

func BenchmarkFigure2(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure2Context(context.Background())
	})
}

func BenchmarkFigure3(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure3Context(context.Background(), benchCfg())
	})
}

func BenchmarkFigure4(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure4Context(context.Background(), benchCfg())
	})
}

func BenchmarkOutlierImmunity(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.OutlierImmunityContext(context.Background(), benchCfg())
	})
}

func BenchmarkFigure5(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure5Context(context.Background(), benchCfg())
	})
}

func BenchmarkFigure6(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure6Context(context.Background(), benchCfg())
	})
}

func BenchmarkFigure7(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure7Context(context.Background(), benchCfg())
	})
}

func BenchmarkFigure8a(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure8aContext(context.Background(), benchCfg())
	})
}

func BenchmarkFigure8b(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.Figure8bContext(context.Background(), benchCfg())
	})
}

func BenchmarkNoisyInputs(b *testing.B) {
	runFigure(b, func() (*experiments.Table, error) {
		return experiments.NoisyInputsContext(context.Background(), benchCfg())
	})
}

// --- Micro-benchmarks of the individual algorithms and hot paths ---

func benchGroundTruth(b *testing.B, n, d, k, l int) *GroundTruth {
	b.Helper()
	gt, err := Generate(SynthConfig{N: n, D: d, K: k, AvgDims: l, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return gt
}

func BenchmarkSSPCRun(b *testing.B) {
	gt := benchGroundTruth(b, 1000, 100, 5, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(5)
		opts.Seed = int64(i)
		if _, err := Cluster(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSPCSupervised(b *testing.B) {
	gt := benchGroundTruth(b, 150, 1000, 5, 10)
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsAndDims, Coverage: 1, Size: 5, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(5)
		opts.Knowledge = kn
		opts.Seed = int64(i)
		if _, err := Cluster(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterParallel measures the restart engine's scaling: 8 SSPC
// restarts on the default synthetic workload, at 1/2/4/8 workers. The
// Result is byte-identical across the sub-benchmarks; only wall-clock time
// changes.
func BenchmarkClusterParallel(b *testing.B) {
	gt := benchGroundTruth(b, 1000, 100, 5, 10)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions(5)
				opts.Seed = 42
				opts.Restarts = 8
				opts.Workers = workers
				if _, err := Cluster(context.Background(), gt.Data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAssignChunked measures intra-restart scaling: a single SSPC
// restart (Restarts=1 routes the whole worker budget into the chunked
// assignment and dimension re-selection loops) at 1/2/4/8 workers. The engine
// sizes the chunks from the worker count; the Result is byte-identical
// across every sub-benchmark (pinned by TestConformanceParallelEvaluation),
// only wall-clock time changes — run on multi-core hardware for the speedup
// curve.
func BenchmarkAssignChunked(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 5, 12)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := DefaultOptions(5)
				opts.Seed = 42
				opts.Workers = workers
				if _, err := Cluster(context.Background(), gt.Data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstrainedAssignChunked measures one chunked COP-KMeans
// constrained-assignment pass (the (component × center) distance scan plus
// the serial feasibility placement) at 1/2/4/8 workers. The pass output is
// byte-identical across every sub-benchmark (the conformance suite pins the
// full Run); only wall-clock time changes.
func BenchmarkConstrainedAssignChunked(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 50, 4, 20)
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsOnly, Coverage: 1, Size: 5, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	cons := ConstraintsFromKnowledge(kn)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			bench, err := copkmeans.NewAssignBench(gt.Data, cons, 4, workers)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.Assign(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateColumnar pits the columnar kernel against the
// pre-kernel per-element At column scan on one Step-4 cluster evaluation
// (SelectDim over all d dimensions of one cluster's members). The two legs
// return bit-identical φ_i (pinned by the kernel's oracle test); the
// benchmark charts the win of a row-major Welford pass that takes a median
// only where s²_ij < ŝ²_ij. Allocations are reported: the columnar leg must
// stay at 0 allocs/op after its scratch warms up.
func BenchmarkEvaluateColumnar(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 5, 12)
	members := gt.MembersOfClass(0)
	eb, err := core.NewEvalBench(gt.Data, DefaultOptions(5))
	if err != nil {
		b.Fatal(err)
	}
	var sink float64
	b.Run("flat/columnar", func(b *testing.B) {
		sink = eb.Columnar(members) // warm the kernel scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = eb.Columnar(members)
		}
	})
	b.Run("flat/atscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = eb.Reference(members)
		}
	})
	_ = sink
}

// BenchmarkEvaluateParallel measures the cluster-chunked Step-4 evaluation
// path — one full SelectDim + φ_i pass over all K clusters through
// engine.MapChunksIntoCtx, one cluster per chunk with per-worker kernel scratch —
// at 1/2/4/8 workers. The returned Σφ is bit-identical across the
// sub-benchmarks (pinned by TestConformanceParallelEvaluation and the core
// parallel-evaluation tests); only wall-clock time changes. Single-core CI
// caveat: with one core the curve is flat and the workers>1 legs only add
// scheduling overhead — run on multi-core hardware for the speedup numbers.
func BenchmarkEvaluateParallel(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 8, 12)
	clusters := make([][]int, 8)
	for c := range clusters {
		clusters[c] = gt.MembersOfClass(c)
	}
	var sink float64
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eb, err := core.NewParallelEvalBench(gt.Data, DefaultOptions(8), clusters, workers)
			if err != nil {
				b.Fatal(err)
			}
			sink = eb.Evaluate() // warm the per-worker kernel scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = eb.Evaluate()
			}
		})
	}
	_ = sink
}

// BenchmarkGatherRows measures the bulk row accessor behind PROCLUS's
// per-cluster refinement: gathering one cluster's worth of scattered member
// rows into a dense block. Zero allocs/op by contract (TestGatherZeroAlloc).
func BenchmarkGatherRows(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 5, 12)
	members := gt.MembersOfClass(0)
	dst := make([]float64, len(members)*gt.Data.D())
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			gt.Data.GatherRows(members, dst)
		}
	})
}

// benchMmapDataset writes the benchmark ground truth to a temp .sspcb file
// sharded 16 ways and reopens it mmap-backed — the disk storage tier under
// the same shapes the in-memory benchmarks measure.
func benchMmapDataset(b *testing.B, gt *GroundTruth) *Dataset {
	b.Helper()
	path := filepath.Join(b.TempDir(), "bench.sspcb")
	shardRows := (gt.Data.N() + 15) / 16
	if _, err := WriteBinaryDataset(path, gt.Data, shardRows); err != nil {
		b.Fatal(err)
	}
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { fl.Close() })
	return fl.Dataset()
}

// BenchmarkGatherRowsMmap is BenchmarkGatherRows' disk-tier leg: the same
// scattered-member gather, but the matrix aliases a read-only mmap of a
// .sspcb file (16 shards) instead of a heap slice. Zero allocs/op by the same
// contract (TestGatherZeroAllocMmap); the delta against
// BenchmarkGatherRows/flat is the cost of file-backed storage.
func BenchmarkGatherRowsMmap(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 5, 12)
	members := gt.MembersOfClass(0)
	dst := make([]float64, len(members)*gt.Data.D())
	ds := benchMmapDataset(b, gt)
	b.Run("shards=16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ds.GatherRows(members, dst)
		}
	})
}

// BenchmarkClusterMmap measures the disk tier end to end: one SSPC restart
// at 8 workers over the mmap-backed dataset of a 16-shard file. The Result is byte-identical to the flat fit (pinned by
// TestConformanceDiskVsFlat); BenchmarkAssignChunked/workers=8 is the same
// fit on the heap.
func BenchmarkClusterMmap(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 200, 5, 12)
	ds := benchMmapDataset(b, gt)
	b.Run("shards=16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := DefaultOptions(5)
			opts.Seed = 42
			opts.Workers = 8
			if _, err := Cluster(context.Background(), ds, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExperimentsParallel measures harness scaling on a real figure
// (Figure 4's parameter sweep) at 1/2/4/8 workers; the rendered table is
// identical across the sub-benchmarks.
func BenchmarkExperimentsParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := experiments.Config{Repeats: 2, Scale: 0.25, Seed: 1, Workers: workers}
			for i := 0; i < b.N; i++ {
				t, err := experiments.Figure4Context(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := t.WriteTo(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The *Chunked benchmarks below measure the intra-restart chunked loops of
// the baselines at 1/2/4/8 workers: Restarts=1 routes the whole worker
// budget into each algorithm's chunked point loops (PROCLUS assignment /
// refinement / outlier passes, DOC box-membership scans). Results are
// byte-identical across every sub-benchmark (pinned by
// TestConformanceParallelEvaluation); only
// wall-clock time changes. Single-core CI caveat: the CI container has one
// core, so these curves are flat there (worker scheduling overhead only) —
// run on multi-core hardware for the actual speedup numbers.

func BenchmarkProclusChunked(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 100, 5, 10)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := PROCLUSDefaults(5, 10)
				opts.Seed = 42
				opts.Workers = workers
				if _, err := PROCLUS(context.Background(), gt.Data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDOCChunked(b *testing.B) {
	gt := benchGroundTruth(b, 600, 30, 3, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := DOCDefaults(3, 15)
				opts.Seed = 42
				opts.Workers = workers
				if _, err := DOC(context.Background(), gt.Data, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPROCLUSRun(b *testing.B) {
	gt := benchGroundTruth(b, 1000, 100, 5, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := PROCLUSDefaults(5, 10)
		opts.Seed = int64(i)
		if _, err := PROCLUS(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHARPRun(b *testing.B) {
	gt := benchGroundTruth(b, 300, 50, 4, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := HARP(context.Background(), gt.Data, HARPDefaults(4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCLARANSRun(b *testing.B) {
	gt := benchGroundTruth(b, 1000, 100, 5, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := CLARANSDefaults(5)
		opts.Seed = int64(i)
		if _, err := CLARANS(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDOCRun(b *testing.B) {
	gt := benchGroundTruth(b, 300, 30, 3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DOCDefaults(3, 15)
		opts.Seed = int64(i)
		if _, err := DOC(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkARI(b *testing.B) {
	gt := benchGroundTruth(b, 5000, 10, 5, 5)
	pred := make([]int, len(gt.Labels))
	copy(pred, gt.Labels)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ARI(gt.Labels, pred); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGridBuild(b *testing.B) {
	gt := benchGroundTruth(b, 5000, 50, 5, 10)
	dims := []int{1, 7, 23}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grid.Build(gt.Data, dims, 6, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (design-choice studies from DESIGN.md) ---

// ablationARI runs SSPC with the given option tweak and reports mean ARI as
// a custom benchmark metric, so `go test -bench Ablation` doubles as the
// ablation study runner.
func ablationARI(b *testing.B, mutate func(*Options)) {
	gt := benchGroundTruth(b, 500, 100, 5, 8)
	total := 0.0
	count := 0
	for i := 0; i < b.N; i++ {
		opts := DefaultOptions(5)
		opts.Seed = int64(i)
		mutate(&opts)
		res, err := Cluster(context.Background(), gt.Data, opts)
		if err != nil {
			b.Fatal(err)
		}
		a, err := ARI(gt.Labels, res.Assignments)
		if err != nil {
			b.Fatal(err)
		}
		total += a
		count++
	}
	b.ReportMetric(total/float64(count), "ARI/op")
}

func BenchmarkAblationRepresentative(b *testing.B) {
	b.Run("median", func(b *testing.B) {
		ablationARI(b, func(o *Options) { o.Representative = core.MedianRepresentative })
	})
	b.Run("mean", func(b *testing.B) {
		ablationARI(b, func(o *Options) { o.Representative = core.MeanRepresentative })
	})
}

func BenchmarkAblationGrid(b *testing.B) {
	b.Run("g20c3", func(b *testing.B) {
		ablationARI(b, func(o *Options) { o.Grids, o.GridDims = 20, 3 })
	})
	b.Run("g5c3", func(b *testing.B) {
		ablationARI(b, func(o *Options) { o.Grids, o.GridDims = 5, 3 })
	})
	b.Run("g20c2", func(b *testing.B) {
		ablationARI(b, func(o *Options) { o.Grids, o.GridDims = 20, 2 })
	})
	b.Run("g20c4", func(b *testing.B) {
		ablationARI(b, func(o *Options) { o.Grids, o.GridDims = 20, 4 })
	})
}

func BenchmarkAblationInitOrder(b *testing.B) {
	gt := benchGroundTruth(b, 200, 500, 5, 10)
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsAndDims, Coverage: 0.6, Size: 4, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, order core.InitOrder) {
		total := 0.0
		for i := 0; i < b.N; i++ {
			opts := DefaultOptions(5)
			opts.Knowledge = kn
			opts.Order = order
			opts.Seed = int64(i)
			res, err := Cluster(context.Background(), gt.Data, opts)
			if err != nil {
				b.Fatal(err)
			}
			ft, fp := FilterObjects(gt.Labels, res.Assignments, kn.LabeledObjectSet())
			a, err := ARI(ft, fp)
			if err != nil {
				b.Fatal(err)
			}
			total += a
		}
		b.ReportMetric(total/float64(b.N), "ARI/op")
	}
	b.Run("knowledgeFirst", func(b *testing.B) { run(b, core.KnowledgeFirst) })
	b.Run("random", func(b *testing.B) { run(b, core.RandomOrder) })
}

func BenchmarkCLIQUERun(b *testing.B) {
	gt, err := Generate(SynthConfig{
		N: 400, D: 8, K: 2, AvgDims: 3,
		LocalSDMinFrac: 0.01, LocalSDMaxFrac: 0.03, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := CLIQUEDefaults()
	opts.Tau = 0.08
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := CLIQUE(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBiclusterRun(b *testing.B) {
	gt := benchGroundTruth(b, 100, 30, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := BiclusterDefaults(2, 50)
		opts.Seed = int64(i)
		if _, _, err := Biclusters(context.Background(), gt.Data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCOPKMeansRun(b *testing.B) {
	gt := benchGroundTruth(b, 500, 20, 4, 20)
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsOnly, Coverage: 1, Size: 5, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cons := ConstraintsFromKnowledge(kn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := COPKMeansDefaults(4)
		opts.Seed = int64(i)
		if _, err := COPKMeans(context.Background(), gt.Data, cons, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeAssign measures the serving hot path: Step-3 assignment of
// query batches through an Assigner built from a fitted model, the same
// code cmd/sspcd runs under /assign. The fit, the model round-trip, and the
// Assigner construction all happen in setup; the measured region is only
// AssignBatch over batches of 1, 64, and 1024 rows cycled from the training
// data. Allocations are reported: the hot path must stay at 0 allocs/op in
// steady state (pinned by TestAssignerZeroAlloc and
// TestModelAssignerZeroAlloc).
func BenchmarkServeAssign(b *testing.B) {
	gt := benchGroundTruth(b, 2000, 100, 5, 10)
	opts := DefaultOptions(5)
	opts.Seed = 42
	res, err := Cluster(context.Background(), gt.Data, opts)
	if err != nil {
		b.Fatal(err)
	}
	mdl, err := ModelFromResult("sspc", "bench", opts.Seed, DatasetHash(gt.Data), gt.Data.D(), res)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := mdl.Encode()
	if err != nil {
		b.Fatal(err)
	}
	decoded, err := DecodeModel(enc) // serve from the wire form, as sspcd does
	if err != nil {
		b.Fatal(err)
	}
	asn, err := decoded.Assigner()
	if err != nil {
		b.Fatal(err)
	}
	n, d := gt.Data.N(), gt.Data.D()
	rows := make([]float64, n*d)
	for x := 0; x < n; x++ {
		copy(rows[x*d:(x+1)*d], gt.Data.Row(x))
	}
	for _, batch := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			out := make([]int, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (i * batch) % (n - batch + 1)
				if err := asn.AssignBatch(rows[start*d:(start+batch)*d], out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkValidateKnowledge(b *testing.B) {
	gt := benchGroundTruth(b, 200, 500, 4, 10)
	kn, err := SampleKnowledge(gt, KnowledgeConfig{Kind: ObjectsAndDims, Coverage: 1, Size: 6, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultOptions(4)
	opts.Knowledge = kn
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ValidateKnowledge(gt.Data, kn, opts, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterCtxOverhead charts the cost of the context seam: the same
// single-restart SSPC fit under context.Background (the "run" leg, whose Err
// is a constant nil) and under a live cancelable context that is never
// cancelled (the "ctx" leg, whose Err takes a lock). The cancellation gates
// are one ctx.Err and one atomic fault-registry load per chunk and iteration
// boundary, so the two legs must stay within noise of each other — the
// robustness layer costs nothing when unused.
func BenchmarkClusterCtxOverhead(b *testing.B) {
	gt := benchGroundTruth(b, 800, 60, 3, 8)
	opts := DefaultOptions(3)
	opts.Seed = 42
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Cluster(context.Background(), gt.Data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ctx", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < b.N; i++ {
			if _, err := Cluster(ctx, gt.Data, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}
