// Package faults is a deterministic fault-injection registry for the chaos
// tests in faults_test.go. Production code calls Check at named sites (restart
// launch, chunk execution, shard gather, mmap open, model registry I/O); a
// disabled registry — the default, and the only state outside tests — makes
// every Check a single atomic load returning nil, so the hooks cost nothing
// on hot paths and nothing allocates.
//
// When a test arms the registry with Enable, each site counts its hits with
// an atomic counter and triggers its plan's fault once the count reaches the
// plan's After threshold: ModeError returns a typed *InjectedError, ModePanic
// panics with an *InjectedPanic (contained at the engine's restart boundary
// into a *engine.PanicError), ModeDelay sleeps. Thresholds can be derived
// deterministically from a seed with DerivePlan, so a seeded chaos matrix
// replays the same failure at the same hit every run.
//
// Injection is process-global, like the race detector it is meant to be run
// under: tests that arm it must not run in parallel with tests that assume a
// quiet registry, and must Disable (t.Cleanup) when done.
package faults

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// The named injection sites. Every site listed here has a live Check hook in
// production code; TestFaultsSitesExercised pins that arming each one
// actually fires.
const (
	// SiteRestartLaunch fires in engine.Run immediately before a restart
	// function is invoked.
	SiteRestartLaunch = "engine/restart-launch"
	// SiteChunkExec fires in the engine chunk scheduler before each chunk
	// of a ParallelChunksCtx / MapChunksIntoCtx call is dispatched; the
	// error comes back to the caller as a plain error.
	SiteChunkExec = "engine/chunk-exec"
	// SiteShardGather fires in dataset.GatherRows / dataset.GatherColumn,
	// the bulk accessors every columnar kernel reads the matrix through. The
	// hook is in a void hot path, so ModeError surfaces as a panic carrying
	// the *InjectedError, contained at the restart boundary.
	SiteShardGather = "dataset/shard-gather"
	// SiteMmapOpen fires in binfmt.OpenBinary before the mmap-backed
	// dataset is mapped and verified.
	SiteMmapOpen = "binfmt/mmap-open"
	// SiteModelIO fires in model.Save and model.Load, the registry's disk
	// boundary.
	SiteModelIO = "model/registry-io"
)

// Sites lists every named injection site, in a fixed order, so the chaos
// matrix can prove each one is exercised.
func Sites() []string {
	return []string{SiteRestartLaunch, SiteChunkExec, SiteShardGather, SiteMmapOpen, SiteModelIO}
}

// Mode selects what a triggered plan does.
type Mode uint8

const (
	// ModeOff disables the plan (same as not registering it).
	ModeOff Mode = iota
	// ModeError makes Check return a *InjectedError.
	ModeError
	// ModePanic makes Check panic with an *InjectedPanic.
	ModePanic
	// ModeDelay makes Check sleep for the plan's Delay, then return nil.
	ModeDelay
)

func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Plan arms one site. The fault triggers on every hit whose 1-based count is
// >= After (After <= 1 means the very first hit), so a concurrent site fails
// deterministically: whichever goroutine crosses the threshold first fails,
// and every later hit fails too — no lucky retry can slip past an armed site.
type Plan struct {
	Site  string
	Mode  Mode
	After uint64
	Delay time.Duration // ModeDelay only
}

func (p Plan) threshold() uint64 {
	if p.After < 1 {
		return 1
	}
	return p.After
}

// DerivePlan builds a Plan whose After threshold is a deterministic function
// of (seed, site) in [1, span], so a seeded chaos run replays the same
// failure point without hardcoding hit counts that drift as code evolves.
// span < 1 is treated as 1.
func DerivePlan(seed int64, site string, mode Mode, span uint64) Plan {
	if span < 1 {
		span = 1
	}
	z := uint64(seed)
	for _, b := range []byte(site) {
		z = (z ^ uint64(b)) * 0x100000001B3 // FNV-1a step to fold the site name in
	}
	// splitmix64 finalizer, same mix the engine's ChildSeed uses.
	z += 0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return Plan{Site: site, Mode: mode, After: 1 + z%span}
}

// ErrInjected is the sentinel every injected failure matches under
// errors.Is, whether it surfaced as an error or was contained from a panic.
var ErrInjected = errors.New("fault injected")

// InjectedError is the typed error ModeError returns.
type InjectedError struct {
	Site string
	Hit  uint64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected error at %s (hit %d)", e.Site, e.Hit)
}

// Is matches ErrInjected so callers can test errors.Is(err, faults.ErrInjected).
func (e *InjectedError) Is(target error) bool { return target == ErrInjected }

// InjectedPanic is the value ModePanic panics with. It is also an error (and
// matches ErrInjected), so engine.PanicError.Unwrap exposes it and a contained
// panic still satisfies errors.Is(err, faults.ErrInjected).
type InjectedPanic struct {
	Site string
	Hit  uint64
}

func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("faults: injected panic at %s (hit %d)", p.Site, p.Hit)
}

// Is matches ErrInjected, like InjectedError.
func (p *InjectedPanic) Is(target error) bool { return target == ErrInjected }

type sitePlan struct {
	plan Plan
	hits atomic.Uint64
}

type registry struct {
	plans map[string]*sitePlan
}

var (
	armed   atomic.Bool
	current atomic.Pointer[registry]
)

// Enable arms the registry with the given plans, replacing any previous set
// and resetting all hit counters. Plans with ModeOff are dropped.
func Enable(plans ...Plan) {
	reg := &registry{plans: make(map[string]*sitePlan, len(plans))}
	for _, p := range plans {
		if p.Mode == ModeOff || p.Site == "" {
			continue
		}
		reg.plans[p.Site] = &sitePlan{plan: p}
	}
	current.Store(reg)
	armed.Store(len(reg.plans) > 0)
}

// Disable disarms the registry. Subsequent Checks are a single atomic load.
func Disable() {
	armed.Store(false)
	current.Store(nil)
}

// Armed reports whether any plan is registered.
func Armed() bool { return armed.Load() }

// Hits returns how many times site has been checked since Enable. It reports
// 0 when the registry is disarmed or the site has no plan.
func Hits(site string) uint64 {
	reg := current.Load()
	if reg == nil {
		return 0
	}
	sp := reg.plans[site]
	if sp == nil {
		return 0
	}
	return sp.hits.Load()
}

// Check is the production hook: a no-op (one atomic load) unless the
// registry is armed with a plan for site whose hit threshold has been
// reached, in which case it errors, panics, or delays per the plan's Mode.
func Check(site string) error {
	if !armed.Load() {
		return nil
	}
	return check(site)
}

// MustCheck is Check for void hot paths that cannot return an error
// (dataset's bulk gathers): an injected error is raised as a panic carrying
// the *InjectedError, which the engine's restart-boundary containment turns
// back into a typed error.
func MustCheck(site string) {
	if !armed.Load() {
		return
	}
	if err := check(site); err != nil {
		panic(err)
	}
}

func check(site string) error {
	reg := current.Load()
	if reg == nil {
		return nil
	}
	sp := reg.plans[site]
	if sp == nil {
		return nil
	}
	hit := sp.hits.Add(1)
	if hit < sp.plan.threshold() {
		return nil
	}
	switch sp.plan.Mode {
	case ModePanic:
		panic(&InjectedPanic{Site: site, Hit: hit})
	case ModeDelay:
		time.Sleep(sp.plan.Delay)
		return nil
	default:
		return &InjectedError{Site: site, Hit: hit}
	}
}
