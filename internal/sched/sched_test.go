package sched

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// ringCell returns a sweep cell for a perfectly parallel program: work
// flops split evenly over the processes, with a ring exchange so
// communication is priced too.
func ringCell(work float64) func(np int) (*spmd.Result, error) {
	return func(np int) (*spmd.Result, error) {
		return core.Simulate(np, machine.IBMSP(), func(p *spmd.Proc) {
			p.Flops(work / float64(p.N()))
			if p.N() > 1 {
				next, prev := (p.Rank()+1)%p.N(), (p.Rank()-1+p.N())%p.N()
				p.Send(next, 1, p.Rank())
				spmd.Recv[int](p, prev, 1)
			}
		})
	}
}

// TestSweepMatchesSerialRun is the pool's correctness contract: a
// concurrent sweep produces bit-identical curves to a serial loop over
// the same cells, because every cell is an independent deterministic
// world.
func TestSweepMatchesSerialRun(t *testing.T) {
	procs := []int{1, 2, 4, 8}
	s := &Scheduler{Workers: 4}
	for _, work := range []float64{1e6, 2e6, 4e6} {
		run := ringCell(work)
		seq, err := run(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Points(context.Background(), "ring", seq.Makespan, procs, run)
		if err != nil {
			t.Fatal(err)
		}
		for i, np := range procs {
			res, err := run(np)
			if err != nil {
				t.Fatal(err)
			}
			want := core.Point{Procs: np, Time: res.Makespan, Speedup: seq.Makespan / res.Makespan, Msgs: res.Msgs, Bytes: res.Bytes}
			if got.Points[i] != want {
				t.Fatalf("work %g point %d: got %+v, want %+v", work, i, got.Points[i], want)
			}
		}
	}
}

// TestErrorPropagates: a panicking cell must surface as an error naming
// the panic, not hang the pool, leak its workers or poison later sweeps.
func TestErrorPropagates(t *testing.T) {
	s := &Scheduler{Workers: 2}
	before := runtime.NumGoroutine()
	_, err := Map(context.Background(), s, 6, func(i int) (int, error) {
		if i == 3 {
			panic("cell failure")
		}
		return i, nil
	})
	if err == nil || !strings.Contains(err.Error(), "cell failure") {
		t.Fatalf("want cell failure error, got %v", err)
	}
	// The pool must still work afterwards.
	if _, err := s.Points(context.Background(), "after", 1, []int{1, 2}, ringCell(1e4)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines leaked after failed sweep: %d before, %d after", before, n)
	}
}

// TestPointsAssemblesCurve exercises the closure-cell sweep used by the
// figure reproductions (per-np block distributions).
func TestPointsAssemblesCurve(t *testing.T) {
	m := machine.IBMSP()
	procs := []int{1, 2, 4, 8}
	const work = 1e6
	s := &Scheduler{Workers: 4}
	seqTime := work * m.FlopTime
	c, err := s.Points(context.Background(), "pts", seqTime, procs, func(np int) (*spmd.Result, error) {
		return core.Simulate(np, m, func(p *spmd.Proc) {
			p.Flops(work / float64(np))
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, pt := range c.Points {
		if pt.Procs != procs[i] {
			t.Fatalf("point %d out of order: procs %d, want %d", i, pt.Procs, procs[i])
		}
		if diff := pt.Speedup - float64(pt.Procs); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("point %d speedup %g, want %d", i, pt.Speedup, pt.Procs)
		}
	}
	if sp := c.SpeedupAt(4); sp < 3.99 || sp > 4.01 {
		t.Errorf("SpeedupAt(4) = %g, want ~4", sp)
	}
	if c.SpeedupAt(3) != 0 {
		t.Error("SpeedupAt of an unswept process count should be 0")
	}
}

// TestSweepRunsConcurrently demonstrates the wall-clock win the pool
// exists for: a sweep of cells that each block 10ms completes far faster
// than the serial sum. Sleep-bound cells make the timing robust to host
// load and GOMAXPROCS.
func TestSweepRunsConcurrently(t *testing.T) {
	const cellDelay = 10 * time.Millisecond
	run := func(np int) (*spmd.Result, error) {
		return core.Simulate(np, machine.IBMSP(), func(p *spmd.Proc) {
			if p.Rank() == 0 {
				time.Sleep(cellDelay)
			}
			p.Flops(10)
		})
	}
	procs := []int{1, 2, 1, 2, 1, 2, 1, 2}
	serialStart := time.Now()
	for _, np := range procs {
		if _, err := run(np); err != nil {
			t.Fatal(err)
		}
	}
	serial := time.Since(serialStart)

	s := &Scheduler{Workers: 8}
	concStart := time.Now()
	if _, err := s.Points(context.Background(), "sleep", 1, procs, run); err != nil {
		t.Fatal(err)
	}
	concurrent := time.Since(concStart)

	t.Logf("serial sweep %v, scheduled sweep %v (%d cells × %v)", serial, concurrent, len(procs), cellDelay)
	if concurrent >= serial {
		t.Errorf("scheduled sweep (%v) not faster than serial (%v)", concurrent, serial)
	}
}
