package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// A server slower than the schedule must not slow the schedule down: every
// due request is still sent, later ones leave late, and each latency counts
// from the due time, so it includes the lag.
func TestOpenLoopChargesLagToLatency(t *testing.T) {
	const service = 4 * time.Millisecond
	var calls atomic.Int64
	start := time.Now()
	// 500/s for 40 ms is 20 requests, 2 ms apart, over one connection that
	// needs 4 ms each: request i waits about 2·i ms for the connection.
	shots := openLoop(context.Background(), start, 500, 40*time.Millisecond, 1, func(context.Context, int) error {
		calls.Add(1)
		time.Sleep(service)
		return nil
	})
	if len(shots) != 20 || calls.Load() != 20 {
		t.Fatalf("sent %d of %d scheduled requests, want 20", calls.Load(), len(shots))
	}
	for i, s := range shots {
		if s.err != nil {
			t.Fatalf("shot %d: %v", i, s.err)
		}
		if s.latency < s.lag+service {
			t.Errorf("shot %d: latency %v < lag %v + service %v", i, s.latency, s.lag, service)
		}
	}
	if last := shots[len(shots)-1].lag; last < 30*time.Millisecond {
		t.Errorf("last request left %v late, want about 38ms", last)
	}
}

// A fast server sees requests on schedule: lag stays small and no request
// is sent before it is due.
func TestOpenLoopKeepsSchedule(t *testing.T) {
	start := time.Now().Add(time.Millisecond)
	shots := openLoop(context.Background(), start, 200, 50*time.Millisecond, 2, func(context.Context, int) error { return nil })
	if len(shots) != 10 {
		t.Fatalf("got %d shots, want 10", len(shots))
	}
	for i, s := range shots {
		if s.lag < 0 {
			t.Errorf("shot %d sent %v early", i, -s.lag)
		}
		if s.lag > 20*time.Millisecond {
			t.Errorf("shot %d sent %v late against an idle server", i, s.lag)
		}
	}
}

// Requests still unsent when the context ends fail instead of being
// dropped from the count.
func TestOpenLoopCanceledRequestsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	shots := openLoop(ctx, time.Now(), 1000, 20*time.Millisecond, 1, func(_ context.Context, i int) error {
		if i == 4 {
			cancel()
		}
		return nil
	})
	failed := 0
	for _, s := range shots {
		if errors.Is(s.err, context.Canceled) {
			failed++
		}
	}
	if failed != len(shots)-5 {
		t.Errorf("%d of %d shots failed after cancel at request 4, want %d", failed, len(shots), len(shots)-5)
	}
}

func TestClosedLoopCounts(t *testing.T) {
	var calls atomic.Int64
	okN, failedN := closedLoop(context.Background(), 50*time.Millisecond, 2, func(_ context.Context, i int) error {
		calls.Add(1)
		time.Sleep(time.Millisecond)
		if i%2 == 1 {
			return errors.New("odd")
		}
		return nil
	})
	if okN == 0 || failedN == 0 || int64(okN+failedN) != calls.Load() {
		t.Errorf("closed loop counted ok=%d failed=%d for %d calls", okN, failedN, calls.Load())
	}
}
