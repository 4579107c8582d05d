package elastic

// White-box liveness tests: these speak the worker protocol by hand to
// stage failure modes a well-behaved worker cannot produce.

import (
	"bufio"
	"context"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// silentWorker attaches with a valid handshake and then never answers
// anything again — the wedged-process failure mode TCP cannot report: the
// connection stays open, reads succeed, but no pong (or pop response)
// ever comes back.
func silentWorker(addr, token string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	defer conn.Close()
	if err := dist.WriteFrame(conn, opHello, dist.HelloBody(token, os.Getpid())); err != nil {
		return
	}
	br := bufio.NewReader(conn)
	for {
		if _, _, err := dist.ReadFrame(br); err != nil {
			return
		}
	}
}

// TestHeartbeatDeclaresSilentWorkerDead gives the world a single wedged
// worker: heartbeats must declare it dead after the configured misses,
// and the starve hook's replacement worker must then carry the world to
// completion. The rank bodies idle past the detection window before
// their first operation so the declaration can only come from the
// heartbeat path, never from a data-plane I/O error.
func TestHeartbeatDeclaresSilentWorkerDead(t *testing.T) {
	const np = 2
	var stats Stats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := New(
		WithWorkerCount(1),
		WithExternalWorkers(),
		WithAttachHook(func(addr, token string) { go silentWorker(addr, token) }),
		WithHeartbeat(25*time.Millisecond, 3),
		WithStarveHook(func(addr, token string) {
			go Join(ctx, addr, token) //nolint:errcheck // completion is the assertion
		}),
		WithObserver(func(s Stats) { stats = s }),
	)
	outs := make([]int, np)
	prog := func(p *spmd.Proc) {
		// Sit out ~6 heartbeat windows so the silent worker is declared
		// dead before any send or receive touches it.
		time.Sleep(150 * time.Millisecond)
		rank, n := p.Rank(), p.N()
		p.Send((rank+1)%n, 7, rank*10)
		outs[rank] = p.Recv((rank+n-1)%n, 7).(int)
	}
	res, err := core.Run(context.Background(), r, np, machine.IBMSP(), prog)
	if err != nil {
		t.Fatalf("run with a silent worker: %v", err)
	}
	if want := []int{10, 0}; !reflect.DeepEqual(outs, want) {
		t.Fatalf("outs = %v, want %v", outs, want)
	}
	if res.Msgs != np {
		t.Errorf("meters = %d msgs, want %d", res.Msgs, np)
	}
	if stats.DeclaredDead < 1 {
		t.Errorf("stats.DeclaredDead = %d, want >= 1: heartbeats never declared the silent worker dead", stats.DeclaredDead)
	}
	if stats.Restarts < 1 {
		t.Errorf("stats.Restarts = %d, want >= 1: the silent worker's leases were never rescheduled", stats.Restarts)
	}
	if stats.Workers < 2 {
		t.Errorf("stats.Workers = %d, want >= 2", stats.Workers)
	}
}

// TestAttachRejectsBadToken proves the world token gates admission: a
// dialer with the wrong token must be dropped before it can host
// anything, without disturbing the real pool.
func TestAttachRejectsBadToken(t *testing.T) {
	const np = 2
	var gotAddr, gotToken string
	r := New(
		WithLocalWorkers(false),
		WithWorkerCount(1),
		WithAttachHook(func(addr, token string) { gotAddr, gotToken = addr, token }),
	)
	prog := func(p *spmd.Proc) {
		if p.Rank() == 0 {
			p.Send(1, 1, 42)
		} else {
			if v := p.Recv(0, 1).(int); v != 42 {
				panic("bad payload")
			}
		}
		if p.Rank() == 1 {
			// By now the listener is up: an impostor with a garbage token
			// must be rejected (its conn closes without a welcome).
			conn, err := net.Dial("tcp", gotAddr)
			if err != nil {
				return
			}
			defer conn.Close()
			dist.WriteFrame(conn, opHello, dist.HelloBody("not-"+gotToken, 1)) //nolint:errcheck // rejection path
			conn.SetReadDeadline(time.Now().Add(2 * time.Second))              //nolint:errcheck // enforced by the read
			if _, _, err := dist.ReadFrame(bufio.NewReader(conn)); err == nil {
				panic("impostor with a bad token was welcomed")
			}
		}
	}
	if _, err := core.Run(context.Background(), r, np, machine.IBMSP(), prog); err != nil {
		t.Fatalf("run: %v", err)
	}
}
