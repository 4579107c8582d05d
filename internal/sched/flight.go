package sched

import (
	"context"
	"fmt"
	"sync"
)

// Flight is a string-keyed singleflight group riding a Scheduler's
// worker pool: concurrent Do calls with the same key run the work once
// — under one pool slot — and every caller gets the one result. No
// program path uses it; bench/ still times it (sched.flight_us).
//
// A Flight memoizes nothing: entries exist only while the work is in
// flight and are dropped when it completes, so its state is bounded by
// its concurrency, not its history.
//
// Cancellation: a waiter whose own context dies stops waiting with its
// ctx.Err(); if the runner was cancelled, waiters with live contexts
// re-enter and run the work themselves rather than inheriting a foreign
// cancellation.
type Flight[V any] struct {
	// Sched provides the bounded worker pool; nil means Shared().
	Sched *Scheduler

	mu       sync.Mutex
	inflight map[string]*flightCell[V]
}

// flightCell is one in-flight computation: the first claimant runs it,
// later claimants wait for done.
type flightCell[V any] struct {
	done chan struct{}
	// joined counts coalescing waiters; guarded by the Flight's mu
	// (written by waiters at join time, read by the runner at drop time).
	joined int
	val    V
	err    error
}

func (f *Flight[V]) scheduler() *Scheduler {
	if f.Sched != nil {
		return f.Sched
	}
	return Shared()
}

// Pending returns the number of keys currently in flight.
func (f *Flight[V]) Pending() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.inflight)
}

// Do runs fn under key, coalescing with any in-flight call for the same
// key. It returns fn's result, plus shared=true when this caller got a
// result computed by (or also handed to) another caller. The work runs
// under one of the scheduler's worker slots, so a Flight shares its
// admission bound with every other user of the pool. A panicking fn is reported as an error
// to every waiter, not a crash.
func (f *Flight[V]) Do(ctx context.Context, key string, fn func() (V, error)) (v V, shared bool, err error) {
	var zero V
	if err := ctx.Err(); err != nil {
		return zero, false, err
	}
	s := f.scheduler()
	s.init()
	f.mu.Lock()
	if f.inflight == nil {
		f.inflight = make(map[string]*flightCell[V])
	}
	c, hit := f.inflight[key]
	if !hit {
		c = &flightCell[V]{done: make(chan struct{})}
		f.inflight[key] = c
	} else {
		c.joined++
	}
	f.mu.Unlock()
	if hit {
		select {
		case <-c.done:
			// The runner may have been cancelled while our context is
			// alive: it already dropped the key, so re-enter and run the
			// work ourselves rather than inheriting the cancellation.
			if c.err != nil && isCancellation(c.err) && ctx.Err() == nil {
				return f.Do(ctx, key, fn)
			}
			return c.val, true, c.err
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
	}
	s.acquire()
	func() {
		defer s.release()
		defer close(c.done)
		defer func() {
			if r := recover(); r != nil {
				c.err = fmt.Errorf("sched: flight %q panicked: %v", key, r)
			}
			if c.err != nil && ctx.Err() != nil {
				c.err = ctx.Err()
			}
			f.mu.Lock()
			// Waiters that joined before this delete share the result;
			// later callers with the same key start a fresh flight.
			shared = c.joined > 0
			delete(f.inflight, key)
			f.mu.Unlock()
		}()
		c.val, c.err = fn()
	}()
	return c.val, shared, c.err
}
