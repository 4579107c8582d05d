package dist

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/spmd"
)

// flakyListener injects transient Accept failures before delegating to a
// real listener — the EMFILE / momentarily-wedged-stack shape.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("accept: too many open files")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

func (l *flakyListener) remaining() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fails
}

// TestServeRecoversFromTransientAcceptErrors is the Serve regression: a
// burst of transient Accept failures must not kill the serving loop — a
// world attaching right after them still runs — and Serve returns only
// when the listener itself closes.
func TestServeRecoversFromTransientAcceptErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &flakyListener{Listener: ln, fails: 3}
	served := make(chan error, 1)
	go func() { served <- Serve(fl) }()

	w, err := spmd.NewWorldOn(context.Background(), New(WithWorkers(ln.Addr().String())), 1, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(func(p *spmd.Proc) {
		p.Send(0, 1, 42)
		if v := spmd.Recv[int](p, 0, 1); v != 42 {
			panic("self-send corrupted")
		}
	}); err != nil {
		t.Fatalf("world after transient accept errors: %v", err)
	}
	if got := fl.remaining(); got != 0 {
		t.Errorf("%d injected accept failures never hit the loop", got)
	}

	ln.Close()
	select {
	case err := <-served:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("Serve = %v, want net.ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
}

// TestBackoff pins the two back-off helpers: the pause doubles per
// failure up to its ceiling and is jittered within ±50 % of that, and
// retry stops at the first success or returns the last error once its
// attempts run out.
func TestBackoff(t *testing.T) {
	const base, ceil = 10 * time.Millisecond, 80 * time.Millisecond
	for i, nominal := range []time.Duration{10, 20, 40, 80, 80, 80} {
		nominal *= time.Millisecond
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for range 200 {
			d := backoff(i, base, ceil)
			lo, hi = min(lo, d), max(hi, d)
		}
		if lo < nominal/2 || hi >= nominal*3/2 {
			t.Errorf("backoff(%d) spans [%v, %v], want within [%v, %v)", i, lo, hi, nominal/2, nominal*3/2)
		}
		if hi-lo < nominal/2 {
			t.Errorf("backoff(%d) spans [%v, %v]: jitter narrower than half the pause %v", i, lo, hi, nominal)
		}
	}

	calls := 0
	err := retry(3, time.Microsecond, time.Microsecond, func() error {
		calls++
		return fmt.Errorf("failure %d", calls)
	})
	if calls != 3 || err == nil || err.Error() != "failure 3" {
		t.Errorf("retry of a failing call: %d calls, error %v; want 3 calls and the last error", calls, err)
	}
	calls = 0
	err = retry(3, time.Microsecond, time.Microsecond, func() error {
		if calls++; calls < 2 {
			return errors.New("transient")
		}
		return nil
	})
	if calls != 2 || err != nil {
		t.Errorf("retry of a call that succeeds second: %d calls, error %v; want 2 calls and nil", calls, err)
	}
}

// TestUpstreamNeverBlocksTheLoop drives the worker's up stream against a
// peer that does not read: write and flush must keep returning (the
// control loop must keep consuming its down stream — the dist send/echo
// deadlock was this loop parked in a socket write), frames must arrive in
// order across the inline → drain → inline transitions, and sync must
// put the bye on the wire last. Over a socket the first flush goes out
// inline; over net.Pipe there is no descriptor to try, so every flush
// takes the drain path.
func TestUpstreamNeverBlocksTheLoop(t *testing.T) {
	tcpPair := func(t *testing.T) (net.Conn, net.Conn) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		a, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		b, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		return a, b
	}
	for _, tc := range []struct {
		name   string
		pair   func(t *testing.T) (net.Conn, net.Conn)
		inline bool
	}{
		{"socket", tcpPair, true},
		{"pipe", func(*testing.T) (net.Conn, net.Conn) { return net.Pipe() }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			near, far := tc.pair(t)
			defer near.Close()
			defer far.Close()
			u := newUpstream(near)
			if (u.try != nil) != tc.inline {
				t.Fatalf("non-blocking write available = %v, want %v", u.try != nil, tc.inline)
			}
			draining := func() bool {
				u.mu.Lock()
				defer u.mu.Unlock()
				return u.draining
			}
			// The loop's side of the contract, under a watchdog: a call that
			// blocks on the stalled peer fails the test instead of hanging it.
			bulk := make([]byte, 64<<10)
			seq := uint64(0)
			push := func(body []byte) {
				t.Helper()
				binary.BigEndian.PutUint64(body, seq)
				seq++
				done := make(chan error, 1)
				go func() {
					err := u.write(opDeliver, body)
					if err == nil {
						err = u.flush()
					}
					done <- err
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatalf("frame %d: %v", seq-1, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("frame %d: the up stream blocked on a peer that is not reading", seq-1)
				}
			}

			push(bulk[:64])
			if tc.inline && draining() {
				t.Fatal("a small frame into an empty socket buffer took the drain path")
			}
			for !draining() {
				if seq > 4096 {
					t.Fatal("256 MiB into a stalled peer and the stream never reported backpressure")
				}
				push(bulk)
			}
			for i := 0; i < 64; i++ { // appended behind the drainer
				push(bulk)
			}

			// The peer wakes up and reads everything, checking order.
			type seen struct {
				frames uint64
				err    error
			}
			atBye, atEnd := make(chan seen, 1), make(chan seen, 1)
			go func() {
				br := bufio.NewReader(far)
				var next uint64
				for {
					op, b, err := readFrame(br, maxFrame)
					if err != nil {
						atEnd <- seen{next, err}
						return
					}
					err = forEachFrame(op, b, func(op byte, b []byte) error {
						switch {
						case op == opBye:
							atBye <- seen{frames: next}
						case op != opDeliver || len(b) < 8:
							return fmt.Errorf("frame %d: op %d, %d bytes", next, op, len(b))
						case binary.BigEndian.Uint64(b) != next:
							return fmt.Errorf("frame %d arrived carrying seq %d", next, binary.BigEndian.Uint64(b))
						default:
							next++
						}
						return nil
					})
					if err != nil {
						atEnd <- seen{next, err}
						return
					}
				}
			}()
			if err := u.write(opBye, nil); err != nil {
				t.Fatal(err)
			}
			if err := u.sync(); err != nil {
				t.Fatalf("sync: %v", err)
			}
			if draining() {
				t.Fatal("sync returned with the drainer still live")
			}
			select {
			case got := <-atBye:
				if got.frames != seq {
					t.Fatalf("bye arrived after %d deliveries, want all %d before it", got.frames, seq)
				}
			case got := <-atEnd:
				t.Fatalf("reader stopped after %d frames: %v", got.frames, got.err)
			case <-time.After(30 * time.Second):
				t.Fatal("bye never arrived")
			}

			// Caught up: the next world's frames go inline again.
			push(bulk[:64])
			if tc.inline && draining() {
				t.Fatal("stream still on the drain path after catching up")
			}
			if err := u.sync(); err != nil {
				t.Fatal(err)
			}
			near.Close()
			if got := <-atEnd; got.frames != seq {
				t.Fatalf("reader saw %d deliveries, want %d (%v)", got.frames, seq, got.err)
			}
		})
	}
}
