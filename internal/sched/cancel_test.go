package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// blockingCell returns a sweep cell whose multi-process worlds block in
// communication until release is set. While the flag is false, rank 0
// waits for a message that never comes — only cancelling ctx can unwind
// it.
func blockingCell(ctx context.Context, release *atomic.Bool) func(np int) (*spmd.Result, error) {
	return func(np int) (*spmd.Result, error) {
		return core.Run(ctx, backend.Default(), np, machine.IBMSP(), func(p *spmd.Proc) {
			if p.N() > 1 && p.Rank() == 0 && !release.Load() {
				p.Recv(1, 99) // rank 1 never sends tag 99
			}
			p.Flops(10)
		})
	}
}

// TestSweepCancellation: cancelling a sweep's context while its worlds
// are blocked in communication returns ctx.Err() promptly and leaks no
// goroutines, and the pool sweeps cleanly again under a live context.
func TestSweepCancellation(t *testing.T) {
	var release atomic.Bool
	s := &Scheduler{Workers: 2}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := s.Points(ctx, "cancellable", 1, []int{1, 2, 4}, blockingCell(ctx, &release))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines leaked after cancelled sweep: %d before, %d after", before, n)
	}

	release.Store(true)
	c, err := s.Points(context.Background(), "cancellable", 1, []int{1, 2, 4}, blockingCell(context.Background(), &release))
	if err != nil {
		t.Fatalf("re-sweep after cancellation: %v", err)
	}
	if len(c.Points) != 3 {
		t.Fatalf("re-sweep produced %d points, want 3", len(c.Points))
	}
}

// TestMapCancellation: the generic pool primitive observes its context.
func TestMapCancellation(t *testing.T) {
	s := &Scheduler{Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	gate := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
		close(gate)
	}()
	_, err := Map(ctx, s, 64, func(i int) (int, error) {
		atomic.AddInt64(&started, 1)
		<-gate
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Map = %v, want context.Canceled", err)
	}
	// With 2 workers and a cancelled context, most of the 64 cells must
	// have been skipped without running.
	if n := atomic.LoadInt64(&started); n > 16 {
		t.Errorf("%d cells started after cancellation, want early skip", n)
	}
}

// TestPointsCancellation: a pre-cancelled context refuses the whole sweep.
func TestPointsCancellation(t *testing.T) {
	s := &Scheduler{Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Points(ctx, "pts", 1, []int{1, 2}, func(np int) (*spmd.Result, error) {
		t.Error("cell ran under a pre-cancelled context")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Points = %v, want context.Canceled", err)
	}
}
