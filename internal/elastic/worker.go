package elastic

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/backend/dist"
	"repro/internal/backoff"
)

// Environment keys of the self-spawn protocol, mirroring the dist
// backend's: the coordinator re-executes its own binary with envWorker
// pointing at its control listener, and MaybeWorker turns that process
// into an elastic worker before the host program's main logic runs.
const (
	envWorker = "ARCHELASTIC_WORKER"
	envToken  = "ARCHELASTIC_TOKEN"
)

// MaybeWorker turns the current process into an elastic worker when it
// was self-spawned by an elastic coordinator (the ARCHELASTIC_WORKER
// environment variable is set) and never returns in that case; otherwise
// it is a no-op. Call it first thing in main (next to dist.MaybeWorker)
// of any binary that should support the elastic backend's default
// self-spawn mode.
func MaybeWorker() {
	addr := os.Getenv(envWorker)
	if addr == "" {
		return
	}
	if err := Join(context.Background(), addr, os.Getenv(envToken)); err != nil {
		fmt.Fprintf(os.Stderr, "elastic worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// reconnectPolicy is the redial schedule after a lost coordinator
// connection: fast, because either the coordinator is still there (an
// injected or real link fault) and the worker should rejoin promptly, or
// it is gone (world over) and the worker should give up promptly.
func reconnectPolicy() backoff.Policy {
	return backoff.Policy{Attempts: 5, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: 0.5}
}

// Join serves an elastic coordinator as a worker endpoint: it dials addr
// (retrying the initial dial with exponential backoff + jitter, so a
// worker started moments before its coordinator attaches instead of
// dying), attaches, and hosts rank inboxes until the world finishes.
//
// If the connection breaks mid-world the worker redials with backoff and
// re-attaches as a brand-new worker with empty state — the coordinator's
// shadow queues are authoritative, and a lost worker's leases were
// already rescheduled the moment it was declared dead, so a rejoining
// worker simply pulls queued rank tasks like any other mid-run joiner.
// Join returns nil when a world it served finished (or the coordinator
// disappeared after at least one successful attach), and an error only
// when it never managed to attach at all.
func Join(ctx context.Context, addr, token string) error {
	attachedOnce := false
	for {
		var conn net.Conn
		pol := backoff.Dial()
		if attachedOnce {
			pol = reconnectPolicy()
		}
		err := pol.Retry(ctx, func() error {
			var derr error
			conn, derr = net.Dial("tcp", addr)
			return derr
		})
		if err != nil {
			if attachedOnce {
				// Coordinator gone: the world is over (finished, failed, or
				// cancelled); a worker outliving its world exits quietly.
				return nil
			}
			return fmt.Errorf("elastic: dialing coordinator %s: %w", addr, err)
		}
		attached, done, err := serveConn(conn, token)
		attachedOnce = attachedOnce || attached
		if done {
			return err
		}
		// Connection broke mid-world: reconnect as a fresh worker.
	}
}

// serveConn speaks the worker side of the protocol on one established
// coordinator connection. attached reports whether the handshake
// completed; done reports a terminal outcome (finish barrier or protocol
// error) as opposed to a reconnectable link loss.
func serveConn(conn net.Conn, token string) (attached, done bool, err error) {
	defer conn.Close()
	if err := dist.WriteFrame(conn, opHello, dist.HelloBody(token, os.Getpid())); err != nil {
		return false, false, nil
	}
	br := bufio.NewReader(conn)
	op, body, err := dist.ReadHandshakeFrame(br)
	if err != nil {
		return false, false, nil
	}
	if op != opWelcome {
		return false, true, fmt.Errorf("elastic: worker expected welcome, got op %d", op)
	}
	if _, _, err := parseWelcome(body); err != nil {
		return false, true, err
	}

	// Per-(rank, src) FIFO inboxes for the ranks this worker hosts. The
	// coordinator only pops what its shadow queues prove it enqueued, so
	// an empty pop is a protocol violation, not a blocking condition.
	type key struct{ rank, src int }
	inbox := map[key][][]byte{}

	for {
		op, body, err := dist.ReadFrame(br)
		if err != nil {
			return true, false, nil // link lost: reconnectable
		}
		switch op {
		case opEnq:
			rank, src, tag, metered, payload, err := parseEnq(body)
			if err != nil {
				return true, true, err
			}
			k := key{rank, src}
			inbox[k] = append(inbox[k], msgBody(src, tag, metered, payload))
		case opPop:
			rank, src, err := parsePop(body)
			if err != nil {
				return true, true, err
			}
			k := key{rank, src}
			q := inbox[k]
			if len(q) == 0 {
				return true, true, fmt.Errorf("elastic: worker popped empty inbox for rank %d src %d", rank, src)
			}
			m := q[0]
			inbox[k] = q[1:]
			if err := dist.WriteFrame(conn, opMsg, m); err != nil {
				return true, false, nil
			}
		case opPing:
			if err := dist.WriteFrame(conn, opPong, nil); err != nil {
				return true, false, nil
			}
		case opFinish:
			dist.WriteFrame(conn, opBye, nil) //nolint:errcheck // teardown is best-effort
			return true, true, nil
		default:
			return true, true, fmt.Errorf("elastic: worker received unexpected op %d", op)
		}
	}
}
