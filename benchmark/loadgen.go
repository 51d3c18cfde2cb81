package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// shot is the outcome of one scheduled request.
type shot struct {
	// lag is how late the generator sent the request against its schedule.
	lag time.Duration
	// latency runs from when the request was due, not from when it was sent,
	// so a stall also charges the wait it imposes on the requests behind it.
	latency time.Duration
	err     error
}

// openLoop sends requests on a fixed schedule: request i is due at
// start + i/rate, for every i due before start+dur, whether or not earlier
// requests have completed. conns goroutines share the schedule, each taking
// the next due request, so at most conns requests are in flight; when all of
// them are busy, the next request leaves late and its lag records by how
// much. send performs request i. Requests still unsent when ctx ends fail
// with ctx's error.
func openLoop(ctx context.Context, start time.Time, rate float64, dur time.Duration, conns int, send func(ctx context.Context, i int) error) []shot {
	interval := time.Duration(float64(time.Second) / rate)
	shots := make([]shot, int(math.Ceil(float64(dur)/float64(interval))))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					timer := time.NewTimer(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
					}
				}
				if err := ctx.Err(); err != nil {
					shots[i].err = err
					continue
				}
				sent := time.Now()
				err := send(ctx, i)
				shots[i] = shot{lag: sent.Sub(due), latency: time.Since(due), err: err}
			}
		}()
	}
	wg.Wait()
	return shots
}

// closedLoop keeps conns requests in flight for dur — each goroutine sends
// its next request as soon as the previous one answers — and returns how
// many completed without error and how many failed.
func closedLoop(ctx context.Context, dur time.Duration, conns int, send func(ctx context.Context, i int) error) (ok, failed int) {
	end := time.Now().Add(dur)
	var okN, failedN, next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				if send(ctx, int(next.Add(1)-1)) != nil {
					failedN.Add(1)
				} else {
					okN.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return int(okN.Load()), int(failedN.Load())
}
