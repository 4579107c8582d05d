package dist_test

// Liveness and admission: failure modes a well-behaved worker cannot
// produce, staged around real workers.

import (
	"context"
	"fmt"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// TestHeartbeatDeclaresSilentWorkerDead gives both ranks a wedged worker:
// unanswered heartbeats must declare them dead after the configured
// misses, and the spare listening worker must then carry the world to
// completion. The rank bodies idle past the detection window before
// their first operation, and a silent worker never fails a write, so the
// declaration can only come from the heartbeat path, never from a
// data-plane I/O error.
func TestHeartbeatDeclaresSilentWorkerDead(t *testing.T) {
	const np = 2
	silent := listenWorkers(t, 1, func(ln net.Listener) net.Listener { return silentListener{ln} })[0]
	var stats dist.Stats
	r := dist.Elastic(
		dist.WithWorkers(silent, silent, listenWorkers(t, 1, nil)[0]),
		dist.WithHeartbeat(25*time.Millisecond, 3),
		dist.WithObserver(func(s dist.Stats) { stats = s }),
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
		t.Errorf("stats.Restarts = %d, want >= 1: the silent worker's ranks were never re-executed", stats.Restarts)
	}
	if stats.Workers < 2 {
		t.Errorf("stats.Workers = %d, want >= 2", stats.Workers)
	}
}

// TestAttachRejectsBadToken proves the world token gates admission on
// the control listener, which stays open for respawns: a dialer with the
// wrong token must be dropped before it can host anything, without
// disturbing the real workers. The impostor queues on the listener just
// before rank 1's worker is killed, so the respawn's accept meets it
// first. The world has more ranks than the worker pool parks (at most
// max(NumCPU, 8)), so world start empties the pool and the replacement
// must be spawned.
func TestAttachRejectsBadToken(t *testing.T) {
	if _, err := os.Stat("/proc/net/unix"); err != nil {
		t.Skip("no /proc/net/unix: the control socket is not an abstract unix socket here")
	}
	np := runtime.NumCPU() + 9
	impostor := make(chan error, 1)
	prog := func(p *spmd.Proc) {
		switch p.Rank() {
		case 0:
			// An impostor with a garbage token must be rejected: its
			// connection closes without an assignment.
			go func() { impostor <- dist.JoinWorld("unix:"+controlSocket(), "not-the-world-token") }()
			time.Sleep(50 * time.Millisecond)
			p.Send(1, 1, 42)
		case 1:
			if v := p.Recv(0, 1).(int); v != 42 {
				panic("bad payload")
			}
		}
	}
	r := dist.Elastic(dist.WithFaults(dist.Fault{Rank: 1, Epoch: 0, Action: dist.Kill}))
	if _, err := core.Run(context.Background(), r, np, machine.IBMSP(), prog); err != nil {
		t.Fatalf("run: %v", err)
	}
	select {
	case err := <-impostor:
		if err == nil {
			t.Fatal("impostor with a bad token was welcomed")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("impostor neither welcomed nor rejected")
	}
}

// controlSocket names this process's control socket: the abstract unix
// socket "@archdist-<pid>-<suffix>" dist listens on under Linux, listed
// in /proc/net/unix once a world has created it.
func controlSocket() string {
	blob, _ := os.ReadFile("/proc/net/unix")
	prefix := fmt.Sprintf("@archdist-%d-", os.Getpid())
	names := map[string]bool{}
	for _, line := range strings.Split(string(blob), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(f[len(f)-1], prefix) {
			names[f[len(f)-1]] = true
		}
	}
	if len(names) != 1 {
		panic(fmt.Sprintf("want one control socket named %s*, found %d", prefix, len(names)))
	}
	for name := range names {
		return name
	}
	return ""
}
