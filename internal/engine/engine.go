// Package engine runs the randomized restarts every algorithm in this
// repository is built on (SSPC's medoid restarts, PROCLUS and DOC trials,
// CLARANS local searches, the experiment harness's best-of-N protocol)
// across a bounded worker pool, and hands each restart its share of the
// worker budget for the chunked loops inside it.
//
// The engine is race-safe by construction: restart r always draws from its
// own RNG seeded with ChildSeed(seed, r), results are collected into a slice
// indexed by restart, and the early-stop decision is taken while consuming
// that slice in restart order. A run with Workers = N is therefore
// byte-identical to a run with Workers = 1 — parallelism changes wall-clock
// time, never output.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/stats"
)

// DefaultWorkers resolves a Workers option: values <= 0 mean "one worker per
// available CPU" (runtime.GOMAXPROCS(0)).
func DefaultWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// splitmix64 constants (Steele, Lea, Flood — "Fast splittable pseudorandom
// number generators", OOPSLA 2014). The gamma is the golden ratio in 64-bit
// fixed point; the two multipliers are the finalization mix.
const (
	splitmixGamma = 0x9E3779B97F4A7C15
	splitmixMixA  = 0xBF58476D1CE4E5B9
	splitmixMixB  = 0x94D049BB133111EB
)

// ChildSeed derives the deterministic seed of restart r from a base seed
// using a splitmix64-style finalizer, so sibling restarts get decorrelated
// streams without sharing any RNG state. Restart 0 reuses the base seed
// unchanged: a single-restart run is byte-identical to the historical serial
// path that seeded its RNG with Options.Seed directly.
func ChildSeed(base int64, restart int) int64 {
	if restart == 0 {
		return base
	}
	z := uint64(base) + uint64(restart)*splitmixGamma
	z ^= z >> 30
	z *= splitmixMixA
	z ^= z >> 27
	z *= splitmixMixB
	z ^= z >> 31
	return int64(z)
}

// Cause reports why ctx ended: context.Cause(ctx) once ctx is done, nil
// while it is live. It is the cancellation check every cooperative loop in
// this repository uses — a nil-safe, allocation-free probe whose non-nil
// return is always the error the caller should propagate verbatim
// (context.Canceled, context.DeadlineExceeded, or a custom cancel cause).
func Cause(ctx context.Context) error {
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return context.Cause(ctx)
}

// PanicError is the typed failure a panicking restart is contained into: the
// engine recovers the panic (on whichever goroutine ran the restart — chunk
// pool workers re-raise onto the restart goroutine first), records the value
// and stack, and fails the run with this error instead of crashing the
// process. Unwrap exposes the panic value when it is itself an error, so
// errors.Is / errors.As see through the containment (an injected
// faults.ModePanic still matches faults.ErrInjected).
type PanicError struct {
	Restart int
	Value   any
	Stack   []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: restart %d panicked: %v", e.Restart, e.Value)
}

// Unwrap returns the panic value if it was an error, nil otherwise.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// safeCall invokes one restart with panic containment and the restart-launch
// fault gate inside the recover scope (so an injected launch panic is
// contained exactly like a panic from fn itself).
func safeCall[R any](r int, rng *stats.RNG, intra int, fn func(restart int, rng *stats.RNG, intra int) (R, error)) (res R, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Restart: r, Value: v, Stack: debug.Stack()}
		}
	}()
	if gateErr := faults.Check(faults.SiteRestartLaunch); gateErr != nil {
		var zero R
		return zero, gateErr
	}
	return fn(r, rng, intra)
}

// restartErr wraps a restart failure with its index — unless the failure is
// the caller's own cancellation bubbling back up (a cooperative loop inside
// fn observed ctx and returned its cause), in which case the bare cause is
// returned so callers always see context.Canceled / context.DeadlineExceeded
// for a canceled run, never a restart-wrapped partial-failure message.
func restartErr(ctx context.Context, r int, err error) error {
	if c := Cause(ctx); c != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return c
	}
	return fmt.Errorf("engine: restart %d: %w", r, err)
}

// Run executes fn for restarts 0..n-1 on at most `workers` goroutines (<= 0
// means GOMAXPROCS) and returns the per-restart results in restart order.
// Restart r receives a fresh RNG seeded with ChildSeed(seed, r) and intra,
// its share of the worker budget for the chunked loops inside it: min(W, n)
// restarts run at once and each gets ceil(W / min(W, n)) goroutines,
// rounding up so no part of the budget W is stranded when it is not a
// multiple of the restart count. intra is a scheduling hint only; no
// restart's result may depend on it.
//
// Results are consumed in restart-index order. plateau > 0 stops early: after
// consuming restart r, the run ends iff none of restarts bestIdx+1..r
// improved on the incumbent best at bestIdx under `better` and
// r-bestIdx >= plateau, and Run returns the consumed prefix (at least
// min(plateau+1, n) results). Workers may compute restarts beyond the stop
// point speculatively; those results and failures are discarded, never
// reduced. The returned slice is therefore a pure function of (n, seed,
// plateau, fn), byte-identical for every worker count, provided `better` is
// a pure function of its arguments. plateau <= 0 runs all n restarts and
// better may be nil.
//
// The first failing restart stops new launches; the error reported is the
// consumed failure with the lowest restart index, wrapped with that index. A
// canceled ctx stops the run and returns context.Cause(ctx). A panicking
// restart is contained into a typed *PanicError instead of crashing the
// process.
func Run[R any](ctx context.Context, n, workers int, seed int64, plateau int,
	better func(a, b R) bool, fn func(restart int, rng *stats.RNG, intra int) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, errors.New("engine: nil restart function")
	}
	if plateau > 0 && better == nil {
		return nil, errors.New("engine: nil better predicate")
	}
	if n <= 0 {
		return nil, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	budget := DefaultWorkers(workers)
	workers = min(budget, n)
	intra := (budget + workers - 1) / workers

	results := make([]R, n)
	bestIdx := 0
	// stopAfter applies the early-stop rule once restart r is consumed.
	stopAfter := func(r int) bool {
		if plateau <= 0 {
			return false
		}
		if r > 0 && better(results[r], results[bestIdx]) {
			bestIdx = r
		}
		return r-bestIdx >= plateau
	}

	if workers == 1 {
		for r := 0; r < n; r++ {
			if err := Cause(ctx); err != nil {
				return nil, err
			}
			res, err := safeCall(r, stats.NewRNG(ChildSeed(seed, r)), intra, fn)
			if err != nil {
				return nil, restartErr(ctx, r, err)
			}
			results[r] = res
			if stopAfter(r) {
				return results[: r+1 : r+1], nil
			}
		}
		return results, nil
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for r := range done {
		done[r] = make(chan struct{})
	}

	// Workers take one launch token per restart. Without early stop every
	// token is issued up front. With it, the consumer issues one more per
	// consumed slot, which caps the speculative overhang at workers+plateau
	// restarts beyond the stop point, so cheap restarts cannot race through
	// the whole schedule before the run decides to stop. At most n tokens
	// are ever issued, so the buffer never blocks a send.
	lookahead := n
	if plateau > 0 {
		lookahead = min(n, workers+plateau)
	}
	tokens := make(chan struct{}, n)
	for i := 0; i < lookahead; i++ {
		tokens <- struct{}{}
	}

	// Restart indices are taken in ascending order and every taken index
	// launches, so when restart f fails, every restart below f has launched
	// and the in-order consumer below never waits on a slot that will not
	// close.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tokens:
				}
				if runCtx.Err() != nil {
					return
				}
				r := int(next.Add(1)) - 1
				res, err := safeCall(r, stats.NewRNG(ChildSeed(seed, r)), intra, fn)
				if err != nil {
					errs[r] = err
					cancel()
				} else {
					results[r] = res
				}
				close(done[r])
			}
		}()
	}

	consumed := n
	var firstErr error
	for r := 0; r < n; r++ {
		select {
		case <-done[r]:
		case <-ctx.Done():
			cancel()
			wg.Wait()
			return nil, Cause(ctx)
		}
		if errs[r] != nil {
			firstErr = restartErr(ctx, r, errs[r])
			break
		}
		if r+lookahead < n {
			tokens <- struct{}{}
		}
		if stopAfter(r) {
			consumed = r + 1
			break
		}
	}
	cancel()
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return results[:consumed:consumed], nil
}

// Best returns the index of the best element under the strict `better`
// predicate. Ties keep the lowest index, so the selection is deterministic
// and independent of how the results were produced. It returns -1 for an
// empty slice.
func Best[R any](results []R, better func(a, b R) bool) int {
	if len(results) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(results); i++ {
		if better(results[i], results[best]) {
			best = i
		}
	}
	return best
}
