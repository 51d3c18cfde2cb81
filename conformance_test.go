package sspc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// The cross-algorithm determinism conformance suite: one table of drivers,
// one assertion per contract leg, applied uniformly to all nine algorithms
// (SSPC, PROCLUS, CLARANS, DOC, HARP, CLIQUE, COP-KMeans,
// Seeded-/Constrained-KMeans, Cheng–Church biclustering). It replaces the
// near-duplicate per-package parallel_test.go copies — a new parallel path
// inherits its safety net by adding a row here, not by re-inventing the
// tests.
//
// The legs (see ARCHITECTURE.md, "The determinism contract"):
//
//  1. restart-0 ≡ base-seed: a single-restart run through the engine
//     reproduces the pinned pre-engine serial fingerprint.
//  2. Workers invariance: Workers = 8 is byte-identical to Workers = 1.
//  3. EarlyStop off / un-triggerable windows reproduce the fixed
//     best-of-Restarts protocol (algorithms with a streaming knob).
//  4. More restarts never worsen the best score under a fixed seed split.
//  5. A *Dataset is safe for concurrent readers: independent fits of
//     every algorithm may share one dataset (meaningful under -race).
//  6. Parallel-evaluation invariance: with Restarts = 1 the whole worker
//     budget flows into the intra-restart chunked loops, and worker counts
//     below, at, and above K reproduce the serial golden pins. The sweep
//     routes every evaluation-chunking branch of the cluster-chunked Step-4
//     pass (single chunk, partial slot reuse, more workers than clusters),
//     and because the engine sizes the other chunked loops from the worker
//     count, it also moves every engine-sized chunk boundary.
//  7. Disk-vs-flat invariance: a dataset round-tripped through the .sspcb
//     binary format and reopened mmap-backed (one read-only slice aliasing
//     the file's payload) reproduces the flat Result byte for byte at every
//     (shardRows, workers) combination — the file's shard boundaries stay
//     invisible — and single-restart mmap runs still hit the golden pins:
//     the out-of-core tier is a storage decision, never a semantic one.
//  8. Cancellation: a context cancelled before or during the fit yields
//     context.Canceled (an expired deadline context.DeadlineExceeded) with a
//     nil result — never a partial clustering — and leaves no goroutines
//     behind, on flat and mmap-backed storage alike (see ARCHITECTURE.md,
//     "The cancellation contract").

// confRun carries the engine knobs a conformance driver forwards.
type confRun struct {
	seed      int64
	restarts  int
	workers   int
	earlyStop int
}

// confAlgo is one row of the conformance table.
type confAlgo struct {
	name string
	// golden pins the pre-engine serial output on detFixture at goldenSeed —
	// the single authoritative copy of the fingerprints, captured at the
	// commit that introduced internal/engine. An intentional algorithm
	// change re-captures them and says so in the commit.
	golden string
	// scoreBits pins the same run's Score bit for bit; golden prints it to
	// 12 significant digits only, so a last-bit change would pass golden.
	scoreBits  uint64
	goldenSeed int64
	restarts   int  // multi-restart count for the invariance legs
	earlyStop  bool // has a streaming EarlyStop knob
	run        func(ctx context.Context, ds *Dataset, r confRun) (*Result, error)
}

func conformanceAlgos() []confAlgo {
	return []confAlgo{
		{
			name: "SSPC", golden: "5c33774cfd995ba7 score=0.176140223125", scoreBits: 0x3fc68bc348ea93ec,
			goldenSeed: 5, restarts: 6, earlyStop: true,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := DefaultOptions(3)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				opts.EarlyStop = r.earlyStop
				return Cluster(ctx, ds, opts)
			},
		},
		{
			name: "PROCLUS", golden: "806061b7eb1d1ee0 score=4.3429625545", scoreBits: 0x40115f31936d4b3b,
			goldenSeed: 7, restarts: 6, earlyStop: true,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := PROCLUSDefaults(3, 6)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				opts.EarlyStop = r.earlyStop
				return PROCLUS(ctx, ds, opts)
			},
		},
		{
			name: "CLARANS", golden: "18464aced1dab249 score=33501.7748117", scoreBits: 0x40e05bb8cb41f83e,
			goldenSeed: 9, restarts: 4,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := CLARANSDefaults(3)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				return CLARANS(ctx, ds, opts)
			},
		},
		{
			name: "DOC", golden: "898ce57dcac9acc8 score=34.9990990861", scoreBits: 0x40417fe27a961e44,
			goldenSeed: 11, restarts: 4, earlyStop: true,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := DOCDefaults(3, 15)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				opts.EarlyStop = r.earlyStop
				return DOC(ctx, ds, opts)
			},
		},
		{
			name: "HARP", golden: "f1b9c1627ce202c5 score=16.5321083411", scoreBits: 0x403088384092ea21,
			goldenSeed: 0, restarts: 4,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := HARPDefaults(3)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				return HARP(ctx, ds, opts)
			},
		},
		// The four PR-7 promotions. Their pins were captured from the
		// single-restart serial output at the promoting commit (the sketches
		// had no engine knobs before it, so these are the
		// first authoritative fingerprints).
		{
			name: "CLIQUE", golden: "916a99526552861a score=596", scoreBits: 0x4082a00000000000,
			goldenSeed: 13, restarts: 2,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := CLIQUEDefaults()
				opts.Tau = 0.08
				_, res, err := CLIQUE(ctx, ds, opts)
				return res, err
			},
		},
		{
			name: "COP-KMeans", golden: "3d49343df0baeeb1 score=4097789.85913", scoreBits: 0x414f437eedf7e533,
			goldenSeed: 15, restarts: 4, earlyStop: true,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				// Fixed index-only constraints: identical for the flat and
				// mmap fixture copies, feasible under K = 3.
				cons := &Constraints{
					MustLink:   [][2]int{{0, 1}, {5, 6}},
					CannotLink: [][2]int{{0, 5}, {10, 20}},
				}
				opts := COPKMeansDefaults(3)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				opts.EarlyStop = r.earlyStop
				return COPKMeans(ctx, ds, cons, opts)
			},
		},
		{
			name: "SeedKMeans", golden: "ef00a9fb889cc371 score=3992157.62679", scoreBits: 0x414e752ed03aabc1,
			goldenSeed: 17, restarts: 4, earlyStop: true,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				// No knowledge: every cluster starts from a random object, so
				// the restarts genuinely differ and the restart legs bite.
				opts := SeedKMeansDefaults(3)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				opts.EarlyStop = r.earlyStop
				return SeedKMeans(ctx, ds, nil, opts)
			},
		},
		{
			name: "Bicluster", golden: "9d24ebabeefb658d score=31.7221345615", scoreBits: 0x403fb8ddcf852097,
			goldenSeed: 19, restarts: 3,
			run: func(ctx context.Context, ds *Dataset, r confRun) (*Result, error) {
				opts := BiclusterDefaults(3, 50)
				opts.Seed = r.seed
				opts.Restarts = r.restarts
				opts.Workers = r.workers
				_, res, err := Biclusters(ctx, ds, opts)
				return res, err
			},
		},
	}
}

// TestConformanceRestartZeroBaseSeed: restart 0 reuses the base seed
// unchanged, so a Restarts = 1 run through the engine reproduces the pinned
// pre-engine serial output bit for bit.
func TestConformanceRestartZeroBaseSeed(t *testing.T) {
	gt := detFixture(t)
	for _, a := range conformanceAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			res, err := a.run(context.Background(), gt.Data, confRun{seed: a.goldenSeed, restarts: 1, workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(res); got != a.golden {
				t.Errorf("fingerprint = %s, want %s", got, a.golden)
			}
			if got := math.Float64bits(res.Score); got != a.scoreBits {
				t.Errorf("score bits = %#016x, want %#016x", got, a.scoreBits)
			}
		})
	}
}

// TestConformanceWorkersInvariance: a multi-restart run with Workers = 8
// returns a Result byte-identical to Workers = 1 under the same seed.
func TestConformanceWorkersInvariance(t *testing.T) {
	gt := detFixture(t)
	for _, a := range conformanceAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			serial, err := a.run(context.Background(), gt.Data, confRun{seed: 3, restarts: a.restarts, workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := a.run(context.Background(), gt.Data, confRun{seed: 3, restarts: a.restarts, workers: 8})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Errorf("Workers=8 diverged from Workers=1:\n  1: %s\n  8: %s",
					fingerprint(serial), fingerprint(parallel))
			}
		})
	}
}

// TestConformanceParallelEvaluation is the parallel-evaluation leg (leg 6):
// with Restarts = 1 the whole worker budget flows into the intra-restart
// loops, so the per-cluster Step-4 evaluation (and PROCLUS's per-medoid
// dimension passes) chunk across Workers goroutines. The sweep straddles the
// fixtures' K = 3 — fewer workers than clusters (slot reuse across chunks),
// exactly K, and far more than K (idle slots) — and every point must
// reproduce the serial golden pin bit for bit, because the φ_i slots are
// summed after the chunks in ascending cluster index: the exact addition
// sequence of the serial loop. The engine sizes every other chunked loop
// from the worker count, so each point of the sweep also moves those chunk
// boundaries, and the pin proves no loop depends on where they fall.
func TestConformanceParallelEvaluation(t *testing.T) {
	gt := detFixture(t)
	for _, a := range conformanceAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			for _, workers := range []int{2, 3, 5, 8, 16} {
				res, err := a.run(context.Background(), gt.Data, confRun{seed: a.goldenSeed, restarts: 1, workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(res); got != a.golden {
					t.Errorf("Workers=%d: fingerprint = %s, want %s (parallel evaluation diverged from serial pin)",
						workers, got, a.golden)
				}
				if got := math.Float64bits(res.Score); got != a.scoreBits {
					t.Errorf("Workers=%d: score bits = %#016x, want %#016x", workers, got, a.scoreBits)
				}
			}
		})
	}
}

// TestConformanceEarlyStopCapReproducesFixed: for the streaming algorithms,
// EarlyStop = Restarts (a plateau window that can never trigger) reproduces
// the fixed best-of-Restarts Result byte for byte, at every worker count.
func TestConformanceEarlyStopCapReproducesFixed(t *testing.T) {
	gt := detFixture(t)
	for _, a := range conformanceAlgos() {
		a := a
		if !a.earlyStop {
			continue
		}
		t.Run(a.name, func(t *testing.T) {
			fixed, err := a.run(context.Background(), gt.Data, confRun{seed: 3, restarts: a.restarts, workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				streamed, err := a.run(context.Background(), gt.Data, confRun{
					seed: 3, restarts: a.restarts, workers: workers, earlyStop: a.restarts,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(fixed, streamed) {
					t.Errorf("EarlyStop=%d Workers=%d diverged from the fixed-restarts run",
						a.restarts, workers)
				}
			}
		})
	}
}

// TestConformanceMoreRestartsNeverWorse: the best-of reduction can only
// improve (or keep) the best score as restarts are added under a fixed seed
// split, whatever direction the algorithm's objective runs.
func TestConformanceMoreRestartsNeverWorse(t *testing.T) {
	gt := detFixture(t)
	for _, a := range conformanceAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			single, err := a.run(context.Background(), gt.Data, confRun{seed: 2, restarts: 1})
			if err != nil {
				t.Fatal(err)
			}
			multi, err := a.run(context.Background(), gt.Data, confRun{seed: 2, restarts: a.restarts})
			if err != nil {
				t.Fatal(err)
			}
			if single.Better(single.Score, multi.Score) {
				t.Errorf("best of %d restarts (%v) worse than restart 0 alone (%v)",
					a.restarts, multi.Score, single.Score)
			}
		})
	}
}

// TestConformanceDiskVsFlat is the out-of-core storage-invariance leg (leg
// 7): the fixture is written to a .sspcb binary file at several shard
// granularities and reopened through the full disk path — header and extent
// verification, checksum checks, per-shard stat replay, mmap, one read-only
// slice aliasing the mapped payload — and every algorithm must return a
// Result byte-identical to the flat original for every (shardRows, workers)
// combination (a file's shard boundaries must stay invisible), with
// the single-restart mmap run still reproducing the pre-engine golden pin.
// Together with the typed-error tests in internal/dataset/binfmt this is the
// disk tier's whole contract: verified bytes behave exactly like RAM, and
// unverifiable bytes never produce clusters at all.
func TestConformanceDiskVsFlat(t *testing.T) {
	gt := detFixture(t)
	n := gt.Data.N()
	shardRowsList := []int{n, (n + 2) / 3, (n + 6) / 7} // one, three and seven shards
	workerCounts := []int{1, 8}

	dir := t.TempDir()
	diskData := make([]*Dataset, len(shardRowsList))
	for i, shardRows := range shardRowsList {
		path := filepath.Join(dir, fmt.Sprintf("fixture-%d.sspcb", shardRows))
		if _, err := WriteBinaryDataset(path, gt.Data, shardRows); err != nil {
			t.Fatal(err)
		}
		fl, err := OpenBinaryDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fl.Close() })
		diskData[i] = fl.Dataset()
	}

	for _, a := range conformanceAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			for i, shardRows := range shardRowsList {
				res, err := a.run(context.Background(), diskData[i], confRun{seed: a.goldenSeed, restarts: 1, workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(res); got != a.golden {
					t.Errorf("shardRows=%d: fingerprint = %s, want %s", shardRows, got, a.golden)
				}
				if got := math.Float64bits(res.Score); got != a.scoreBits {
					t.Errorf("shardRows=%d: score bits = %#016x, want %#016x", shardRows, got, a.scoreBits)
				}
			}
			for _, workers := range workerCounts {
				r := confRun{seed: 3, restarts: a.restarts, workers: workers}
				flat, err := a.run(context.Background(), gt.Data, r)
				if err != nil {
					t.Fatal(err)
				}
				for i, shardRows := range shardRowsList {
					disk, err := a.run(context.Background(), diskData[i], r)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(flat, disk) {
						t.Errorf("shardRows=%d workers=%d diverged from flat:\n  flat: %s\n  mmap: %s",
							shardRows, workers, fingerprint(flat), fingerprint(disk))
					}
				}
			}
		})
	}
}

// TestConformanceConcurrentSharedDataset races independent fits of all
// nine algorithms against each other on one shared *Dataset (run under
// -race in CI): datasets must be safe for concurrent readers, including the
// lazily computed column statistics every algorithm touches.
func TestConformanceConcurrentSharedDataset(t *testing.T) {
	gt := detFixture(t)
	var wg sync.WaitGroup
	for _, a := range conformanceAlgos() {
		a := a
		for i := 0; i < 3; i++ {
			seed := int64(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := a.run(context.Background(), gt.Data, confRun{seed: seed, restarts: 2}); err != nil {
					t.Errorf("%s: %v", a.name, err)
				}
			}()
		}
	}
	wg.Wait()
}

// settleGoroutines polls until the process goroutine count drops back to the
// baseline (the engine's workers unwind asynchronously after a cancelled run
// returns) or the deadline passes — at which point a leak is real, not a
// scheduling artifact.
func settleGoroutines(t *testing.T, baseline int, label string) {
	t.Helper()
	for wait := 0; wait < 200; wait++ {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("%s: %d goroutines still running (baseline %d) — cancelled run leaked workers",
		label, runtime.NumGoroutine(), baseline)
}

// TestConformanceContextEquivalence is the cancellation leg (leg 8), on
// flat and mmap-backed storage: a context cancelled before the fit returns
// context.Canceled with a nil result; an expired deadline returns
// context.DeadlineExceeded with a nil result; a cancel racing the fit either
// loses (and the completed Result equals the uncancelled one) or wins with a
// nil result; and no cancelled shape leaves goroutines behind.
func TestConformanceContextEquivalence(t *testing.T) {
	gt := detFixture(t)
	path := filepath.Join(t.TempDir(), "fixture.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, (gt.Data.N()+2)/3); err != nil {
		t.Fatal(err)
	}
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	storage := map[string]*Dataset{"flat": gt.Data, "mmap": fl.Dataset()}

	for _, a := range conformanceAlgos() {
		a := a
		t.Run(a.name, func(t *testing.T) {
			for label, ds := range storage {
				r := confRun{seed: a.goldenSeed, restarts: a.restarts, workers: 4}
				plain, err := a.run(context.Background(), ds, r)
				if err != nil {
					t.Fatal(err)
				}

				baseline := runtime.NumGoroutine()

				cancelled, cancel := context.WithCancel(context.Background())
				cancel()
				res, err := a.run(cancelled, ds, r)
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s: pre-cancelled context: err = %v, want context.Canceled", label, err)
				}
				if res != nil {
					t.Errorf("%s: pre-cancelled context returned a partial result", label)
				}
				settleGoroutines(t, baseline, label+"/cancel")

				expired, cancelExp := context.WithTimeout(context.Background(), -time.Hour)
				defer cancelExp()
				res, err = a.run(expired, ds, r)
				if !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("%s: expired deadline: err = %v, want context.DeadlineExceeded", label, err)
				}
				if res != nil {
					t.Errorf("%s: expired deadline returned a partial result", label)
				}
				settleGoroutines(t, baseline, label+"/deadline")

				// Mid-fit cancellation: fire the cancel concurrently with the
				// run. Either the fit wins the race and completes (then its
				// Result must be the full byte-identical one) or the cancel
				// lands and the typed cause comes back with a nil result —
				// never a partial clustering.
				midCtx, midCancel := context.WithCancel(context.Background())
				go midCancel()
				res, err = a.run(midCtx, ds, r)
				switch {
				case err == nil:
					if !reflect.DeepEqual(plain, res) {
						t.Errorf("%s: mid-fit cancel race: completed run diverged from the uncancelled run", label)
					}
				case errors.Is(err, context.Canceled):
					if res != nil {
						t.Errorf("%s: mid-fit cancel returned a partial result", label)
					}
				default:
					t.Errorf("%s: mid-fit cancel: err = %v, want nil or context.Canceled", label, err)
				}
				settleGoroutines(t, baseline, label+"/mid-cancel")
			}
		})
	}
}
