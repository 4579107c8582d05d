package spmd

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base+slack or the deadline passes, returning the final count.
func waitGoroutines(base, slack int, deadline time.Duration) int {
	limit := time.Now().Add(deadline)
	for runtime.NumGoroutine() > base+slack && time.Now().Before(limit) {
		time.Sleep(5 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

// TestCancelUnblocksReceive: a process blocked forever in Recv unwinds
// when the world's context is cancelled; Run returns ctx.Err() promptly
// and no process goroutine leaks.
func TestCancelUnblocksReceive(t *testing.T) {
	for _, name := range []string{"sim", "real"} {
		r, ok := backend.ByName(name)
		if !ok {
			t.Fatalf("backend %q missing", name)
		}
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		w, err := NewWorldOn(ctx, r, 2, testModel())
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			time.Sleep(30 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err = w.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Recv(1, 1) // rank 1 never sends
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Run after cancel = %v, want context.Canceled", name, err)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("%s: cancellation took %v, want prompt", name, d)
		}
		if n := waitGoroutines(before, 1, 2*time.Second); n > before+1 {
			t.Errorf("%s: goroutines leaked after cancel: %d before, %d after", name, before, n)
		}
	}
}

// TestCancelUnblocksSend: inboxes are unbounded so senders never block,
// but a sender still in its send loop when the run is cancelled must
// unwind promptly through the entry check instead of queueing forever
// into a world nobody will drain.
func TestCancelUnblocksSend(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	w, err := NewWorldOn(ctx, backend.Sim(), 2, testModel())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	_, err = w.Run(func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; ; i++ { // rank 1 never receives: the FIFO fills
				p.Send(1, 1, i)
			}
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if n := waitGoroutines(before, 1, 2*time.Second); n > before+1 {
		t.Errorf("goroutines leaked after cancel: %d before, %d after", before, n)
	}
}

// TestPreCancelledContext: a world whose context is already cancelled
// refuses to run.
func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, err := NewWorldOn(ctx, backend.Sim(), 2, testModel())
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	if _, err := w.Run(func(p *Proc) { ran = true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("body ran under a cancelled context")
	}
}

// TestNewWorldOnValidation: constructor misuse returns errors, not panics.
func TestNewWorldOnValidation(t *testing.T) {
	if _, err := NewWorldOn(context.Background(), nil, 2, testModel()); err == nil {
		t.Error("nil runner should return an error")
	}
	if _, err := NewWorldOn(context.Background(), backend.Sim(), -3, testModel()); err == nil {
		t.Error("negative world size should return an error")
	}
}

// TestSendTMetersLikeSend: SendT and Send are the same wire operation.
func TestSendTMetersLikeSend(t *testing.T) {
	run := func(body func(p *Proc)) *Result {
		res, err := MustWorld(2, testModel()).Run(body)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run(func(p *Proc) {
		if p.Rank() == 0 {
			SendT(p, 1, 7, []int32{1, 2, 3, 4})
		} else {
			Recv[[]int32](p, 0, 7)
		}
	})
	b := run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, 7, []int32{1, 2, 3, 4})
		} else {
			Recv[[]int32](p, 0, 7)
		}
	})
	if a.Makespan != b.Makespan || a.Bytes != b.Bytes || a.Msgs != b.Msgs {
		t.Errorf("SendT run %+v differs from Send run %+v", a, b)
	}
}
