package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// This file holds the intra-restart primitives: the chunk scheduler every
// algorithm's hot point loops run through and the per-worker scratch pool.
// Chunk boundaries are a pure function of (total, chunkSize, workers) —
// never of scheduling — and the engine sizes the chunks itself unless a
// caller needs specific boundaries. Because boundaries may move with the
// worker count, the shared invariant every caller inherits is: a chunked fn
// must give the same result wherever the boundaries fall, so output is
// byte-identical for every Workers value. A caller that reduces across
// units of work writes one slot per unit inside its chunks and folds the
// slots serially in index order after the call returns.
//
// ParallelChunksCtx is the only entry point. It takes a context and returns
// an error: a canceled ctx or an injected chunk-execution fault comes back
// as a plain error, never as a panic.

// chunkPlan is the layout of one chunked call: chunks contiguous ranges that
// tile [0, total) in ascending order. A positive size fixes every range at
// size elements (the last one shorter); size 0 means engine-sized ranges.
type chunkPlan struct{ total, size, chunks int }

// planChunks resolves a call's layout. A positive chunkSize fixes every
// chunk at that many elements, for the callers whose boundaries matter: 1
// for per-cluster folds. chunkSize <= 0 lets the engine size the chunks:
// min(total, 4·max(workers,1)) near-equal ranges of at most
// ceil(total / (4·max(workers,1))) elements, so every worker gets about four
// chunks to even out load.
func planChunks(total, chunkSize, workers int) chunkPlan {
	if chunkSize > 0 {
		return chunkPlan{total: total, size: chunkSize, chunks: (total + chunkSize - 1) / chunkSize}
	}
	return chunkPlan{total: total, chunks: min(total, 4*max(workers, 1))}
}

// bounds returns chunk c's range [lo, hi).
func (p chunkPlan) bounds(c int) (lo, hi int) {
	if p.size > 0 {
		lo = c * p.size
		return lo, min(lo+p.size, p.total)
	}
	return c * p.total / p.chunks, (c + 1) * p.total / p.chunks
}

// chunkGate is the cooperative check taken before every chunk dispatch: the
// fault-injection hook first (a single atomic load when disarmed), then the
// context. A canceled ctx surfaces as context.Cause(ctx), so a caller that
// canceled with a cause sees that cause, and a plain cancel or deadline sees
// context.Canceled / context.DeadlineExceeded. Neither check allocates, which
// keeps the serial chunk path inside the zero-alloc kernel pins.
func chunkGate(ctx context.Context) error {
	if err := faults.Check(faults.SiteChunkExec); err != nil {
		return err
	}
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// ParallelChunksCtx splits [0, total) into contiguous chunks (laid out by
// planChunks: chunkSize elements each, or engine-sized when chunkSize <= 0)
// and runs fn over them on up to `workers` goroutines. Chunk boundaries never
// depend on scheduling, so a caller whose fn writes exclusively to its own
// [lo, hi) output region, and whose per-element work ignores where the
// boundaries fall, produces byte-identical results for every workers value —
// the invariant the intra-restart assignment step is built on. A reduction
// keeps the same invariant by writing one slot per unit of work inside fn
// and folding the slots serially, in index order, after the call returns.
//
// fn also receives a worker slot index in [0, workers) that is stable for
// the duration of the call, so callers can hand each worker its own scratch
// buffers, one per slot in a plain slice. Slot assignment is
// scheduling-dependent; fn must use the slot for scratch only, never to
// influence output values. workers <= 1 or a single chunk runs everything
// inline on slot 0.
//
// A cooperative gate runs before every chunk dispatch. When ctx is canceled
// mid-scan the scheduler stops issuing chunks and returns context.Cause(ctx)
// within one chunk boundary per worker; an armed chunk-execution fault
// returns the injected error the same way. Already-dispatched chunks run to
// completion, so fn's writes stay confined to chunks the scheduler actually
// issued. Partial output must be treated as garbage by the caller whenever
// the return is non-nil — the determinism contract only covers completed
// calls. A panic in fn or in the gate (a panic-mode fault) reaches the
// calling goroutine on either path; inside a restart, Run's containment
// turns it into a *PanicError.
func ParallelChunksCtx(ctx context.Context, total, chunkSize, workers int, fn func(worker, lo, hi int)) error {
	if total <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := planChunks(total, chunkSize, workers)
	if workers <= 1 || p.chunks == 1 {
		for c := 0; c < p.chunks; c++ {
			if err := chunkGate(ctx); err != nil {
				return err
			}
			lo, hi := p.bounds(c)
			fn(0, lo, hi)
		}
		return nil
	}
	return runParallel(ctx, p, workers, fn)
}

// runParallel is the multi-goroutine tail, split out so the serial path
// stays allocation-free: the chunk cursor, wait group, and error slots below
// are captured by the worker goroutines and therefore live on the heap, a
// cost only the path that actually spawns goroutines should pay (the
// zero-alloc kernel pins in core run through the serial path).
//
// A worker that trips the gate records its error under errMu (lowest chunk
// index wins, so the reported error is scheduling-independent whenever a
// deterministic gate — an expired deadline, an armed fault — trips every
// worker) and flips stop so siblings cease pulling chunks. One recover
// around each worker's whole loop catches a panic from the gate and from fn
// alike: unwinding a pool goroutine would kill the process before the
// restart-boundary recover in Run could contain it. The first panic value
// is re-raised on the calling goroutine after the pool drains, so that
// containment sees it exactly as if the chunk had run inline.
func runParallel(ctx context.Context, p chunkPlan, workers int, fn func(worker, lo, hi int)) error {
	if workers > p.chunks {
		workers = p.chunks
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		errMu    sync.Mutex
		errChunk = -1
		firstErr error
		panicked any
	)
	record := func(c int, err error) {
		errMu.Lock()
		if errChunk < 0 || c < errChunk {
			errChunk, firstErr = c, err
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if pv := recover(); pv != nil {
					errMu.Lock()
					if panicked == nil {
						panicked = pv
					}
					errMu.Unlock()
					stop.Store(true)
				}
			}()
			for {
				if stop.Load() {
					return
				}
				c := int(next.Add(1)) - 1
				if c >= p.chunks {
					return
				}
				if err := chunkGate(ctx); err != nil {
					record(c, err)
					return
				}
				lo, hi := p.bounds(c)
				fn(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	// A panic always outranks a gate error: it may be a genuine bug and must
	// keep unwinding toward the restart-boundary containment, never be
	// swallowed by a concurrent cancellation.
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}
