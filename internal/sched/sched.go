// Package sched is the concurrent sweep scheduler: it runs the cells of a
// process-count sweep through a bounded worker pool. It is step 4 of the
// archetype method ("measure"): the figures sweep their SPMD programs
// over process counts through Scheduler.Points and Map.
//
// Every cell of a sweep — one program on one backend at one process count
// — is an independent world, so simulator cells can run concurrently on
// the host without changing their results: they are deterministic in
// virtual time no matter how the host schedules them. The scheduler
// exploits that: it dispatches cells to a worker pool bounded by Workers
// (default GOMAXPROCS) and hands the results back in index order.
//
// Every entry point takes a context.Context and is cancellable mid-flight:
// cells not yet started are skipped, running cells unwind through the
// transport's cancellation path, and the sweep returns ctx.Err().
//
// Real-backend cells are wall-clock measurements: co-scheduling them
// would let cells contend for cores and inflate each other's makespans.
// Route those through SerialShared (or any Workers=1 Scheduler), which
// still pipelines the sweep machinery but runs one cell at a time.
//
// The state-access discipline follows the embarrassingly-parallel worker
// pool pattern: workers share nothing but the pool, cells own their
// worlds outright, and results land in per-index slots.
package sched

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// Scheduler runs sweep cells through a bounded worker pool. The zero
// value is ready to use; one Scheduler may serve many sweeps concurrently
// and they share its bound.
type Scheduler struct {
	// Workers bounds the number of cells running at once. Zero means
	// runtime.GOMAXPROCS(0).
	Workers int

	initOnce sync.Once
	slots    chan struct{}
}

func (s *Scheduler) init() {
	s.initOnce.Do(func() {
		n := s.Workers
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		s.slots = make(chan struct{}, n)
	})
}

// acquire takes a worker slot; release returns it.
func (s *Scheduler) acquire() { s.slots <- struct{}{} }
func (s *Scheduler) release() { <-s.slots }

// isCancellation reports whether err is a context cancellation, possibly
// wrapped.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Map runs f(i) for every i in [0, n) through the scheduler's worker pool
// and returns the results in index order, failing on the first error. It
// is the pool's generic primitive: sweeps whose cells are not one curve
// point each (per-np block distributions, (procs, layout) grids, strategy
// ablations) dispatch through it. Cells not yet started when ctx is
// cancelled are skipped, and Map returns ctx.Err(). A panicking cell is
// reported as an error, not a crash.
//
// Map spawns min(n, pool size) worker goroutines that pull cell indices
// from a shared counter rather than one goroutine per cell: a 256-cell
// sweep through a 4-slot pool costs 4 goroutines, not 256 parked ones.
// Workers still take a pool slot per cell, so concurrent Maps share the
// scheduler's bound fairly.
func Map[T any](ctx context.Context, s *Scheduler, n int, f func(i int) (T, error)) ([]T, error) {
	s.init()
	results := make([]T, n)
	errs := make([]error, n)
	col := obs.FromContext(ctx)
	runCell := func(i int) {
		col.Emit(obs.Event{Rank: -1, Peer: int32(i), Kind: obs.KindEnqueue})
		s.acquire()
		defer s.release()
		start := col.Now()
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("sched: cell panicked: %v", r)
			}
			col.Emit(obs.Event{T: start, Dur: col.Now() - start, Rank: -1, Peer: int32(i), Kind: obs.KindExecute})
		}()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		results[i], errs[i] = f(i)
	}
	workers := min(n, cap(s.slots))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				runCell(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Points runs one sweep cell per process count through the worker pool —
// run(np) builds and executes the cell — and assembles a curve named name
// against the given sequential-baseline time. It is the figures' sweep:
// per-cell setup may depend on the process count (block distributions,
// per-np decompositions).
func (s *Scheduler) Points(ctx context.Context, name string, seqTime float64, procs []int, run func(np int) (*spmd.Result, error)) (*core.Curve, error) {
	results, err := Map(ctx, s, len(procs), func(i int) (*spmd.Result, error) {
		res, err := run(procs[i])
		if err != nil {
			return nil, fmt.Errorf("sched: %s at %d processes: %w", name, procs[i], err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	c := &core.Curve{Name: name, SeqTime: seqTime}
	for i, res := range results {
		c.Points = append(c.Points, core.Point{
			Procs:   procs[i],
			Time:    res.Makespan,
			Speedup: seqTime / res.Makespan,
			Msgs:    res.Msgs,
			Bytes:   res.Bytes,
		})
	}
	return c, nil
}

// shared is the process-wide scheduler: one pool shared by every figure
// and command in the process.
var shared = &Scheduler{}

// Shared returns the process-wide scheduler.
func Shared() *Scheduler { return shared }

// serialShared is the process-wide one-cell-at-a-time scheduler for
// wall-clock measurement cells.
var serialShared = &Scheduler{Workers: 1}

// SerialShared returns the process-wide serial scheduler: same machinery,
// one worker slot, for cells whose measurements would contaminate each
// other if co-scheduled (real-backend wall-clock runs).
func SerialShared() *Scheduler { return serialShared }
