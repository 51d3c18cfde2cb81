package sspc

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/model"
)

// The seed-driven chaos matrix (run by the chaos-smoke CI job under -race):
// every named injection site in internal/faults is armed in turn, in error
// and panic mode, against the code path that owns it — fit restarts, the
// chunk scheduler, the bulk shard gathers, the mmap open, the model
// registry's disk I/O — and each run must surface a typed error that matches
// faults.ErrInjected, return no partial result, and leave the goroutine
// count at its baseline. TestFaultsSitesExercised closes the loop: a site
// whose hit counter stays at zero is a site the matrix no longer reaches.

// armFaults arms the registry for one subtest and guarantees it is disarmed
// on exit, so no fault plan can leak into later tests (the registry is
// process-global).
func armFaults(t *testing.T, plans ...faults.Plan) {
	t.Helper()
	faults.Enable(plans...)
	t.Cleanup(faults.Disable)
}

// fitUnderFault runs a parallel multi-restart SSPC fit on ds and returns its
// outcome; every fit-side injection site (restart launch, chunk execution,
// shard gather) sits on this path.
func fitUnderFault(ds *Dataset) (*Result, error) {
	opts := DefaultOptions(3)
	opts.Seed = 5
	opts.Restarts = 4
	opts.Workers = 4
	return Cluster(context.Background(), ds, opts)
}

// mmapFixture round-trips the deterministic fixture through the binary
// format and reopens it mmap-backed.
func mmapFixture(t *testing.T, gt *GroundTruth) *Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "faults.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, (gt.Data.N()+2)/3); err != nil {
		t.Fatal(err)
	}
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fl.Close() })
	return fl.Dataset()
}

// TestFaultsFitMatrix is the fit-path leg: each fit-side site × {error,
// panic} × {flat, mmap} must fail the run with a typed injected error — a
// panic contained into *engine.PanicError, never a crashed process — with a
// nil result and no leaked goroutines. Error mode at the chunk gate must stay
// a plain error in the chunk loops of the chunkFaultFits too.
func TestFaultsFitMatrix(t *testing.T) {
	gt := detFixture(t)
	storage := map[string]*Dataset{"flat": gt.Data, "mmap": mmapFixture(t, gt)}
	sites := []string{faults.SiteRestartLaunch, faults.SiteChunkExec, faults.SiteShardGather}
	for _, site := range sites {
		for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
			for label, ds := range storage {
				name := fmt.Sprintf("%s/%s/%s", site, mode, label)
				t.Run(name, func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					armFaults(t, faults.DerivePlan(41, site, mode, 8))
					res, err := fitUnderFault(ds)
					if err == nil {
						t.Fatal("fit succeeded with an armed fault site")
					}
					if !errors.Is(err, faults.ErrInjected) {
						t.Errorf("err = %v, want a faults.ErrInjected chain", err)
					}
					if res != nil {
						t.Error("failed fit returned a partial result")
					}
					// The shard-gather site raises through MustCheck even in
					// error mode, so it is contained like a panic; for the
					// others only panic mode should wear the typed wrapper.
					var pe *engine.PanicError
					wantPanic := mode == faults.ModePanic || site == faults.SiteShardGather
					if got := errors.As(err, &pe); got != wantPanic {
						t.Errorf("errors.As(*engine.PanicError) = %v, want %v (err = %v)", got, wantPanic, err)
					}
					faults.Disable()
					settleGoroutines(t, baseline, name)
				})
			}
		}
	}

	// Error mode at the chunk gate must come back as a plain injected error,
	// never a contained panic, in every algorithm's chunk loops — PROCLUS's
	// dimension and outlier passes, SSPC's initialization and Step-4
	// evaluation, COP-KMeans's component distance pass and Seeded-KMeans's
	// assignment. A delay-mode probe counts the fit's chunk gates; arming the
	// first three and the last eight of them reaches PROCLUS's first
	// dimension pass and its outlier tail, SSPC's initialization (its first
	// gates are the density histograms' column ranges) and its last Step-3
	// scans and Step-4 evaluation, and the first and last assignment passes
	// of the two k-means fits.
	for _, f := range chunkFaultFits {
		for label, ds := range storage {
			armFaults(t, faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModeDelay})
			if _, err := f.fit(ds); err != nil {
				t.Fatalf("%s/%s: probe fit: %v", f.name, label, err)
			}
			total := faults.Hits(faults.SiteChunkExec)
			faults.Disable()
			for after := uint64(1); after <= total; after++ {
				if after > 3 && after+8 <= total {
					continue
				}
				gate := fmt.Sprintf("first+%d", after-1)
				if after > 3 {
					gate = fmt.Sprintf("last-%d", total-after)
				}
				name := fmt.Sprintf("%s/%s/%s/%s/%s", f.name, faults.SiteChunkExec, faults.ModeError, label, gate)
				t.Run(name, func(t *testing.T) {
					baseline := runtime.NumGoroutine()
					armFaults(t, faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModeError, After: after})
					res, err := f.fit(ds)
					if !errors.Is(err, faults.ErrInjected) {
						t.Errorf("err = %v, want a faults.ErrInjected chain", err)
					}
					var pe *engine.PanicError
					if errors.As(err, &pe) {
						t.Errorf("error-mode chunk fault surfaced as a contained panic: %v", err)
					}
					if res != nil {
						t.Error("failed fit returned a partial result")
					}
					faults.Disable()
					settleGoroutines(t, baseline, name)
				})
			}
		}
	}
}

// TestFaultsChunkGateStopsInitialization: SSPC's initialization runs its
// chunked loops through the engine's gate, so an error-mode fault armed at
// the first chunk gate of a Workers 2 fit fails it with the injected error
// before Trace.OnInit fires, with no partial result and no leaked goroutine.
func TestFaultsChunkGateStopsInitialization(t *testing.T) {
	gt := detFixture(t)
	storage := map[string]*Dataset{"flat": gt.Data, "mmap": mmapFixture(t, gt)}
	for label, ds := range storage {
		t.Run(label, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			inits := 0
			opts := DefaultOptions(3)
			opts.Seed = 5
			opts.Workers = 2
			opts.Trace = &Trace{OnInit: func(int, []SeedGroupInfo) { inits++ }}
			armFaults(t, faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModeError, After: 1})
			res, err := Cluster(context.Background(), ds, opts)
			faults.Disable()
			if !errors.Is(err, faults.ErrInjected) {
				t.Errorf("err = %v, want a faults.ErrInjected chain", err)
			}
			var pe *engine.PanicError
			if errors.As(err, &pe) {
				t.Errorf("error-mode chunk fault surfaced as a contained panic: %v", err)
			}
			if res != nil {
				t.Error("failed fit returned a partial result")
			}
			if inits != 0 {
				t.Errorf("Trace.OnInit fired %d times: the first chunk gate came after initialization", inits)
			}
			settleGoroutines(t, baseline, label)
		})
	}
}

// TestFaultsChunkGatePanicParallel: a panic raised by the chunk gate on the
// scheduler's multi-goroutine path is contained like a panic inside a chunk.
// A Workers 2, one-restart fit with the gate armed in panic mode at its
// first hit (initialization's first column range, on a pool goroutine)
// fails with an *engine.PanicError wrapping the injected error, with no
// partial result and no leaked goroutine, instead of crashing the process.
func TestFaultsChunkGatePanicParallel(t *testing.T) {
	gt := detFixture(t)
	baseline := runtime.NumGoroutine()
	opts := DefaultOptions(3)
	opts.Seed = 5
	opts.Restarts = 1
	opts.Workers = 2
	armFaults(t, faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModePanic, After: 1})
	res, err := Cluster(context.Background(), gt.Data, opts)
	faults.Disable()
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Errorf("err = %v, want a contained *engine.PanicError", err)
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Errorf("err = %v, want a faults.ErrInjected chain", err)
	}
	if res != nil {
		t.Error("failed fit returned a partial result")
	}
	settleGoroutines(t, baseline, "gate panic")
}

// chunkFaultFits are single-restart fits whose intra-restart chunk loops get
// the whole worker budget, so every chunk pass runs through the scheduler's
// gate on its multi-goroutine path. SSPC's first gates are its
// initialization's (the density histograms' column ranges), its last ones
// Step 3's and Step 4's.
var chunkFaultFits = []struct {
	name string
	fit  func(ds *Dataset) (*Result, error)
}{
	{"PROCLUS", func(ds *Dataset) (*Result, error) {
		opts := PROCLUSDefaults(3, 6)
		opts.Seed = 7
		opts.Workers = 4
		return PROCLUS(context.Background(), ds, opts)
	}},
	{"SSPC", func(ds *Dataset) (*Result, error) {
		opts := DefaultOptions(3)
		opts.Seed = 5
		opts.Restarts = 1
		opts.Workers = 4
		return Cluster(context.Background(), ds, opts)
	}},
	{"COP-KMeans", func(ds *Dataset) (*Result, error) {
		cons := &Constraints{
			MustLink:   [][2]int{{0, 1}, {5, 6}},
			CannotLink: [][2]int{{0, 5}, {10, 20}},
		}
		opts := COPKMeansDefaults(3)
		opts.Seed = 15
		opts.Workers = 4
		return COPKMeans(context.Background(), ds, cons, opts)
	}},
	{"SeedKMeans", func(ds *Dataset) (*Result, error) {
		opts := SeedKMeansDefaults(3)
		opts.Seed = 17
		opts.Workers = 4
		return SeedKMeans(context.Background(), ds, nil, opts)
	}},
}

// TestFaultsMmapOpen: an armed mmap-open site fails OpenBinaryDataset with
// the typed injected error before any page is mapped.
func TestFaultsMmapOpen(t *testing.T) {
	gt := detFixture(t)
	path := filepath.Join(t.TempDir(), "open.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, gt.Data.N()); err != nil {
		t.Fatal(err)
	}
	armFaults(t, faults.Plan{Site: faults.SiteMmapOpen, Mode: faults.ModeError})
	if _, err := OpenBinaryDataset(path); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("OpenBinaryDataset err = %v, want faults.ErrInjected", err)
	}
	faults.Disable()
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatalf("disarmed reopen: %v", err)
	}
	fl.Close()
}

// TestFaultsModelIO: the registry's Save and Load both pass the model-I/O
// gate, so an armed site turns either direction of persistence into the
// typed injected error.
func TestFaultsModelIO(t *testing.T) {
	gt := detFixture(t)
	res, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.FromResult("sspc", "conformance", 5, model.DatasetHash(gt.Data), gt.Data.D(), res)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fit.sspcm")

	armFaults(t, faults.Plan{Site: faults.SiteModelIO, Mode: faults.ModeError})
	if err := m.Save(path); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Save err = %v, want faults.ErrInjected", err)
	}
	faults.Disable()
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	armFaults(t, faults.Plan{Site: faults.SiteModelIO, Mode: faults.ModeError})
	if _, err := model.Load(path); !errors.Is(err, faults.ErrInjected) {
		t.Errorf("Load err = %v, want faults.ErrInjected", err)
	}
	faults.Disable()
	if _, err := model.Load(path); err != nil {
		t.Fatal(err)
	}
}

// TestFaultsDelayIsHarmless: ModeDelay perturbs timing only — the fit still
// succeeds and returns the byte-identical Result, which is the scheduling
// half of the determinism contract restated as a chaos leg.
func TestFaultsDelayIsHarmless(t *testing.T) {
	gt := detFixture(t)
	want, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t,
		faults.Plan{Site: faults.SiteRestartLaunch, Mode: faults.ModeDelay, Delay: time.Millisecond},
		faults.Plan{Site: faults.SiteChunkExec, Mode: faults.ModeDelay, Delay: 100 * time.Microsecond, After: 3},
	)
	got, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("delay injection changed the fit result — scheduling leaked into output")
	}
}

// TestFaultsSitesExercised arms every named site in delay mode at once and
// drives the full surface (fit, mmap open, model save/load); every site's
// hit counter must move, proving the matrix still reaches each gate after
// refactors.
func TestFaultsSitesExercised(t *testing.T) {
	gt := detFixture(t)
	plans := make([]faults.Plan, 0, len(faults.Sites()))
	for _, site := range faults.Sites() {
		plans = append(plans, faults.Plan{Site: site, Mode: faults.ModeDelay})
	}
	armFaults(t, plans...)

	path := filepath.Join(t.TempDir(), "sites.sspcb")
	if _, err := WriteBinaryDataset(path, gt.Data, (gt.Data.N()+1)/2); err != nil {
		t.Fatal(err)
	}
	fl, err := OpenBinaryDataset(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	res, err := fitUnderFault(fl.Dataset())
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.FromResult("sspc", "conformance", 5, fl.ContentHash(), fl.Dataset().D(), res)
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(t.TempDir(), "sites.sspcm")
	if err := m.Save(mpath); err != nil {
		t.Fatal(err)
	}
	if _, err := model.Load(mpath); err != nil {
		t.Fatal(err)
	}
	for _, site := range faults.Sites() {
		if faults.Hits(site) == 0 {
			t.Errorf("site %s was never reached — the chaos matrix lost coverage", site)
		}
	}
}

// TestFaultsDisarmedIsFree: with the registry disarmed, Check answers nil
// and a fit reproduces the exact same bytes as one that never saw the
// registry — the injection seam is invisible in production.
func TestFaultsDisarmedIsFree(t *testing.T) {
	faults.Disable()
	if faults.Armed() {
		t.Fatal("registry armed after Disable")
	}
	if err := faults.Check(faults.SiteChunkExec); err != nil {
		t.Fatalf("disarmed Check = %v, want nil", err)
	}
	gt := detFixture(t)
	want, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	armFaults(t, faults.Plan{Site: faults.SiteRestartLaunch, Mode: faults.ModeDelay, Delay: time.Millisecond})
	if _, err := fitUnderFault(gt.Data); err != nil {
		t.Fatal(err)
	}
	faults.Disable()
	got, err := fitUnderFault(gt.Data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("fit after arm/disarm cycle diverged from the never-armed fit")
	}
}
