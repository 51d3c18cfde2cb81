package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// This file holds the intra-restart primitives: the chunk scheduler every
// algorithm's hot point loops run through, the ordered map-reduce on top of
// it, and the per-worker scratch pool. Chunk boundaries are a pure
// function of (total, chunkSize, workers) — never of scheduling — and the
// engine sizes the chunks itself unless a caller needs specific boundaries.
// Because boundaries may move with the worker count, the shared invariant
// every caller inherits is: a chunked fn (and fold) must give the same result
// wherever the boundaries fall, so output is byte-identical for every
// Workers value.
//
// Both entry points — ParallelChunksCtx and MapChunksIntoCtx — take a
// context and return an error: a canceled ctx or an injected chunk-execution
// fault comes back as a plain error, never as a panic.

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
// the invariant the intra-restart assignment step is built on.
//
// fn also receives a worker slot index in [0, workers) that is stable for
// the duration of the call, so callers can hand each worker its own scratch
// buffers (see Scratch). Slot assignment is scheduling-dependent; fn must use
// the slot for scratch only, never to influence output values. workers <= 1
// or a single chunk runs everything inline on slot 0.
//
// A cooperative gate runs before every chunk dispatch. When ctx is canceled
// mid-scan the scheduler stops issuing chunks and returns context.Cause(ctx)
// within one chunk boundary per worker; an armed chunk-execution fault
// returns the injected error the same way. Already-dispatched chunks run to
// completion, so fn's writes stay confined to chunks the scheduler actually
// issued. Partial output must be treated as garbage by the caller whenever
// the return is non-nil — the determinism contract only covers completed
// calls.
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
	return runParallel(ctx, p, workers, func(worker, c int) {
		lo, hi := p.bounds(c)
		fn(worker, lo, hi)
	})
}

// runParallel is the multi-goroutine tail, split out so the serial paths
// stay allocation-free: the chunk cursor, wait group, and error slots below
// are captured by the worker goroutines and therefore live on the heap, a
// cost only the path that actually spawns goroutines should pay (the
// zero-alloc kernel pins in core run through the serial path). fn receives
// the chunk index; the caller maps it to a range with p.bounds.
//
// A worker that trips the gate records its error under errMu (lowest chunk
// index wins, so the reported error is scheduling-independent whenever a
// deterministic gate — an expired deadline, an armed fault — trips every
// worker) and flips stop so siblings cease pulling chunks. A panicking fn is
// recovered on the worker, and the first panic value is re-raised on the
// calling goroutine after the pool drains, so restart-boundary containment
// in Run sees it exactly as if the chunk had run inline.
func runParallel(ctx context.Context, p chunkPlan, workers int, fn func(worker, c int)) error {
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
	recordPanic := func(pv any) {
		errMu.Lock()
		if panicked == nil {
			panicked = pv
		}
		errMu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
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
				if pv := runChunk(fn, worker, c); pv != nil {
					recordPanic(pv)
					return
				}
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

// runChunk invokes one chunk and converts a panic into a value instead of
// letting it unwind a pool goroutine (which would kill the process before
// the restart-boundary recover in Run could contain it).
func runChunk(fn func(worker, c int), worker, c int) (panicked any) {
	defer func() {
		if v := recover(); v != nil {
			panicked = v
		}
	}()
	fn(worker, c)
	return nil
}

// MapChunksIntoCtx runs fn over the same chunks as ParallelChunksCtx, collects
// one R per chunk, and folds the per-chunk results serially in chunk-index
// order, seeded with the first chunk's result (a single chunk returns fn's
// value directly, no fold call, no copy). The fold is the ordered serial
// reduction of the determinism contract. Chunk boundaries may move with the
// worker count when the engine sizes them, so callers must pick an fn/fold
// pair whose composition does not depend on where the boundaries fall
// (disjoint list concatenation, or chunkSize 1 so each chunk is one unit and
// the fold is the serial loop). total <= 0 returns the zero R.
//
// buf is an optional caller-owned per-chunk results buffer: the
// multi-worker path needs one R slot per chunk, and reuses buf's backing
// array when cap(buf) covers the chunk count instead of allocating a fresh
// slice every call. A steady-state caller whose chunk count is fixed (e.g.
// one map-reduce per iteration over a constant K) can therefore keep the
// reduction allocation-free beyond the goroutine spawns themselves. Every
// slot in [0, chunks) is overwritten before the fold reads it, so stale buf
// contents never leak into the result. A nil (or too small) buf means
// "allocate".
//
// The per-chunk gate is ParallelChunksCtx's: a non-nil error (cancellation
// cause or injected fault) is returned with the zero R — an interrupted
// reduction never folds.
func MapChunksIntoCtx[R any](ctx context.Context, total, chunkSize, workers int, buf []R, fn func(worker, lo, hi int) R, fold func(acc, chunk R) R) (R, error) {
	var zero R
	if total <= 0 {
		return zero, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := planChunks(total, chunkSize, workers)
	if workers <= 1 || p.chunks == 1 {
		var acc R
		for c := 0; c < p.chunks; c++ {
			if err := chunkGate(ctx); err != nil {
				return zero, err
			}
			lo, hi := p.bounds(c)
			if r := fn(0, lo, hi); c == 0 {
				acc = r
			} else {
				acc = fold(acc, r)
			}
		}
		return acc, nil
	}
	var results []R
	if cap(buf) >= p.chunks {
		results = buf[:p.chunks]
	} else {
		results = make([]R, p.chunks)
	}
	if err := runParallel(ctx, p, workers, func(worker, c int) {
		lo, hi := p.bounds(c)
		results[c] = fn(worker, lo, hi)
	}); err != nil {
		return zero, err
	}
	acc := results[0]
	for _, r := range results[1:] {
		acc = fold(acc, r)
	}
	return acc, nil
}

// Scratch hands each worker slot of a chunked call its own lazily built
// scratch value, so chunked loops can reuse buffers without sharing them
// across goroutines. A slot is owned by exactly one goroutine
// for the duration of a chunked call (the worker index fn receives), which
// is the only synchronization Scratch relies on: Get must only be called
// with the worker index of the running chunk, and the values must never
// influence outputs — scratch is for allocation reuse only.
type Scratch[T any] struct {
	build func() T
	slots []T
	made  []bool
}

// NewScratch returns a pool of `slots` lazily built scratch values (at least
// one). build runs at most once per slot, on the first Get.
func NewScratch[T any](slots int, build func() T) *Scratch[T] {
	if slots < 1 {
		slots = 1
	}
	return &Scratch[T]{build: build, slots: make([]T, slots), made: make([]bool, slots)}
}

// Get returns worker's scratch value, building it on first use.
func (s *Scratch[T]) Get(worker int) T {
	if !s.made[worker] {
		s.slots[worker] = s.build()
		s.made[worker] = true
	}
	return s.slots[worker]
}

// Slots returns the number of worker slots in the pool.
func (s *Scratch[T]) Slots() int { return len(s.slots) }
