package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCoalesces: N concurrent Do calls with one key run the work
// once; every caller gets the one result and at least one side reports
// it as shared.
func TestFlightCoalesces(t *testing.T) {
	f := &Flight[int]{Sched: &Scheduler{Workers: 4}}
	var runs atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	const callers = 8
	var shared atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				<-started // ensure caller 0 isn't first: any caller may run it
			}
			v, sh, err := f.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				close(started)
				<-release
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
			if sh {
				shared.Add(1)
			}
		}(i)
	}
	go func() {
		<-started
		// Give waiters a moment to pile onto the in-flight cell.
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	wg.Wait()
	if got := runs.Load(); got != 1 {
		t.Errorf("work ran %d times, want 1", got)
	}
	if shared.Load() == 0 {
		t.Error("no caller observed the result as shared")
	}
	if f.Pending() != 0 {
		t.Errorf("Pending = %d after completion, want 0", f.Pending())
	}
}

// TestFlightDropsCompleted: a finished flight is forgotten — the next
// Do with the same key runs the work again (memoization is the
// persistent cache's job, not the flight's).
func TestFlightDropsCompleted(t *testing.T) {
	f := &Flight[string]{Sched: &Scheduler{Workers: 2}}
	var runs atomic.Int32
	for i := 0; i < 3; i++ {
		v, sh, err := f.Do(context.Background(), "k", func() (string, error) {
			runs.Add(1)
			return "v", nil
		})
		if err != nil || v != "v" || sh {
			t.Fatalf("Do #%d = %q, shared=%v, %v", i, v, sh, err)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("work ran %d times, want 3 (no memoization)", got)
	}
}

// TestFlightErrorsShared: a failing flight hands every coalesced waiter
// the same error, and a panic becomes an error, not a crash.
func TestFlightErrorsShared(t *testing.T) {
	f := &Flight[int]{Sched: &Scheduler{Workers: 2}}
	boom := errors.New("boom")
	if _, _, err := f.Do(context.Background(), "e", func() (int, error) {
		return 0, boom
	}); !errors.Is(err, boom) {
		t.Errorf("err = %v, want %v", err, boom)
	}
	_, _, err := f.Do(context.Background(), "p", func() (int, error) {
		panic("kaboom")
	})
	if err == nil || err.Error() != `sched: flight "p" panicked: kaboom` {
		t.Errorf("panic err = %v", err)
	}
}

// TestFlightCancelledRunnerNotInherited: a waiter with a live context
// does not inherit the runner's cancellation — it re-runs the work
// itself, mirroring the cell cache's discipline.
func TestFlightCancelledRunnerNotInherited(t *testing.T) {
	f := &Flight[int]{Sched: &Scheduler{Workers: 2}}
	runnerCtx, cancelRunner := context.WithCancel(context.Background())
	inWork := make(chan struct{})
	runnerDone := make(chan struct{})
	go func() {
		defer close(runnerDone)
		_, _, err := f.Do(runnerCtx, "k", func() (int, error) {
			close(inWork)
			<-runnerCtx.Done()
			return 0, runnerCtx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("runner err = %v, want Canceled", err)
		}
	}()
	<-inWork
	waiterResult := make(chan error, 1)
	go func() {
		_, _, err := f.Do(context.Background(), "k", func() (int, error) {
			return 7, nil
		})
		waiterResult <- err
	}()
	// Let the waiter join the in-flight cell, then cancel the runner.
	time.Sleep(20 * time.Millisecond)
	cancelRunner()
	<-runnerDone
	if err := <-waiterResult; err != nil {
		t.Errorf("waiter err = %v, want nil (re-run under live context)", err)
	}
}

// TestFlightWaiterCancellation: a waiter whose own context dies stops
// waiting with its ctx.Err() while the flight keeps running.
func TestFlightWaiterCancellation(t *testing.T) {
	f := &Flight[int]{Sched: &Scheduler{Workers: 2}}
	inWork := make(chan struct{})
	release := make(chan struct{})
	go f.Do(context.Background(), "k", func() (int, error) {
		close(inWork)
		<-release
		return 1, nil
	})
	<-inWork
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := f.Do(ctx, "k", func() (int, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter err = %v, want Canceled", err)
	}
	close(release)
}
