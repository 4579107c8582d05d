package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Environment keys of the self-spawn protocol: the coordinator launches
// its own binary again with envWorker pointing at its control listener,
// and MaybeWorker turns that process into a worker before the host
// program's main logic runs.
const (
	envWorker = "ARCHDIST_WORKER"
	envToken  = "ARCHDIST_TOKEN"
	// envCrashRank is a test hook: the worker whose assigned rank matches
	// kills itself when the first message for its rank reaches it — before
	// the delivery is pushed back up — simulating a mid-run crash.
	envCrashRank = "ARCHDIST_CRASH_RANK"
)

// The back-off schedules: a worker's dial retry, which races its
// coordinator's startup (about 6 s of waiting in the worst case), and
// Serve's pause after a failed Accept.
const (
	dialAttempts = 8
	dialBase     = 50 * time.Millisecond
	dialMax      = 2 * time.Second
	acceptBase   = 5 * time.Millisecond
	acceptMax    = time.Second
)

// backoff returns the pause after the i-th consecutive failure (0-based):
// base doubled per earlier failure up to ceil, then jittered uniformly
// within ±50 % so that a fleet of retriers does not retry in lockstep.
func backoff(i int, base, ceil time.Duration) time.Duration {
	d := base
	for ; i > 0 && d < ceil; i-- {
		d *= 2
	}
	d = min(d, ceil)
	return d/2 + rand.N(d)
}

// retry runs f up to attempts times, pausing backoff(i, base, ceil)
// after the i-th failure, and returns nil on the first success or the
// last error.
func retry(attempts int, base, ceil time.Duration, f func() error) error {
	err := f()
	for i := 0; err != nil && i < attempts-1; i++ {
		time.Sleep(backoff(i, base, ceil))
		err = f()
	}
	return err
}

// MaybeWorker turns the current process into a dist worker when it was
// self-spawned by a dist coordinator (the ARCHDIST_WORKER environment
// variable is set) and never returns in that case; otherwise it is a
// no-op. Call it first thing in main (and in TestMain) of any binary
// that should support the dist backend's default self-spawn mode —
// cmd/archdemo, cmd/archbench, cmd/archworker, and the repository's test
// binaries all do.
func MaybeWorker() {
	addr := os.Getenv(envWorker)
	if addr == "" {
		return
	}
	if err := JoinWorld(addr, os.Getenv(envToken)); err != nil {
		fmt.Fprintf(os.Stderr, "dist worker: %v\n", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// JoinWorld dials a coordinator's control address and serves worlds as a
// worker until the coordinator closes the connection (nil) or a world
// dies (the error). The address is "host:port" for TCP or "unix:/path"
// for a coordinator on the same host ("unix:@name" for an abstract
// socket, the self-spawn default on Linux: a unix-domain control socket
// shaves scheduler latency off every coordinator↔worker crossing). The
// initial dial retries with exponential backoff and jitter (see retry)
// instead of failing on the first connection-refused, so a worker
// started moments before its coordinator — the common race when both
// sides launch from one script — attaches instead of dying. An empty token falls back to the
// ARCHDIST_TOKEN environment variable, so explicit worker entry points
// (archworker -join, archdemo -worker) authenticate the same way
// self-spawned workers do.
func JoinWorld(addr, token string) error {
	if token == "" {
		token = os.Getenv(envToken)
	}
	network, dialAddr := "tcp", addr
	if path, ok := strings.CutPrefix(addr, "unix:"); ok {
		network, dialAddr = "unix", path
	}
	var conn net.Conn
	err := retry(dialAttempts, dialBase, dialMax, func() error {
		var err error
		conn, err = net.Dial(network, dialAddr)
		return err
	})
	if err != nil {
		return fmt.Errorf("dist: dialing coordinator %s: %w", addr, err)
	}
	return serveConn(conn, token)
}

// Serve accepts coordinator connections on l and serves worlds on each,
// concurrently — the attach-mode worker loop behind cmd/archworker.
// Transient Accept failures (EMFILE, ECONNABORTED, a momentarily wedged
// stack) back off with capped exponential delay and keep serving — one
// bad accept must not kill the whole serving loop — so Serve returns
// only when the listener itself is closed (closing l is the way to stop
// it).
func Serve(l net.Listener) error {
	fails := 0
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return err
			}
			time.Sleep(backoff(fails, acceptBase, acceptMax))
			fails++
			continue
		}
		fails = 0
		go func() {
			if err := serveConn(conn, ""); err != nil {
				fmt.Fprintf(os.Stderr, "dist worker: world failed: %v\n", err)
			}
		}()
	}
}

// errConnDone is the control loop's signal for the coordinator's
// disappearance (the connection is the worker's lease on life — when it
// closes, between or during worlds, the worker is simply done; a
// cancelled run and a pooled worker's final release look identical from
// here).
var errConnDone = errors.New("dist: coordinator connection closed")

// serveConn speaks the worker side of the control protocol on an
// established coordinator connection, serving worlds back to back: each
// iteration runs one world's handshake (hello → assign → ready), its
// message traffic, and its finish barrier, then offers a fresh hello for
// the next world on the same connection — which is how the coordinator's
// worker pool reuses a warm process instead of paying a spawn per world.
// It returns nil when the coordinator closes the connection (the normal
// end, whether after one world or many) and an error only for substrate
// failures; in a spawned worker process the nonzero exit is what tells
// the coordinator's process monitor the world is dead. token travels in
// every hello frame; self-spawned workers relay the coordinator's
// secret, attach-mode workers send the empty string (the coordinator
// dialed them, so the connection itself is the introduction).
func serveConn(conn net.Conn, token string) error {
	defer conn.Close()
	br := bufio.NewReader(conn)
	up := newUpstream(conn)
	for first := true; ; first = false {
		err := serveWorld(conn, br, up, token, first)
		switch {
		case err == nil: // clean finish: offer the next world
		case errors.Is(err, errConnDone):
			return nil
		default:
			return err
		}
	}
}

// serveWorld runs one world on the control connection. A worker is an
// echo of its own rank's inbox: an opSend frame arriving here was routed
// by the coordinator down the *destination's* connection — this worker's
// rank is the addressee — so its body goes straight back up as an
// opDeliver, untouched; an opPing goes back up as an opPong. The up stream follows the flush-on-idle
// discipline: frames accumulate while more input is already buffered and
// go out as one (possibly multi-message) frame the moment the loop would
// block. The loop blocks only on reading the connection — never on
// writing it (see upstream) — so a vanished coordinator unblocks it by
// failing the read, and a coordinator mid-write toward this worker
// always completes.
func serveWorld(conn net.Conn, br *bufio.Reader, up *upstream, token string, first bool) error {
	if err := writeFrame(conn, opHello, helloBody(token, os.Getpid())); err != nil {
		if first {
			return fmt.Errorf("dist: worker hello: %w", err)
		}
		return errConnDone
	}
	op, body, err := readFrame(br, maxHandshakeFrame)
	if err != nil {
		if first {
			return fmt.Errorf("dist: worker awaiting assignment: %w", err)
		}
		return errConnDone
	}
	if op != opAssign {
		return fmt.Errorf("dist: worker expected assign frame, got op %d", op)
	}
	rank, _, err := parseAssign(body)
	if err != nil {
		return err
	}
	crash := os.Getenv(envCrashRank) == strconv.Itoa(rank)
	if err := writeFrame(conn, opReady, nil); err != nil {
		return fmt.Errorf("dist: worker ready: %w", err)
	}

	// Frames land in a reused scratch buffer and are copied into the up
	// stream's pending buffer before the next read, so the loop is
	// allocation-free in steady state.
	var ctrlBuf []byte
	for {
		op, body, err := readFrameInto(br, &ctrlBuf)
		if err != nil {
			// Control connection gone without a finish frame: the
			// coordinator cancelled, crashed, or released this pooled
			// worker. Exiting quietly is the expected path.
			return errConnDone
		}
		finished := false
		err = forEachFrame(op, body, func(op byte, b []byte) error {
			switch op {
			case opSend:
				if crash {
					// Test hook: die exactly where a real fault would —
					// mid-run, with ranks blocked on messages that will
					// never arrive.
					os.Exit(3)
				}
				return up.write(opDeliver, b)
			case opPing:
				return up.write(opPong, nil)
			case opFinish:
				// Finish barrier: acknowledge, then end the world.
				finished = true
				return up.write(opBye, nil)
			default:
				return fmt.Errorf("unexpected control op %d", op)
			}
		})
		switch {
		case err != nil:
		case finished:
			err = up.sync() // the bye, and every delivery before it
		case !pendingFrame(br):
			err = up.flush()
		}
		if err != nil {
			if connIOErr(err) {
				// A delivery push failed at the socket level: the
				// coordinator tore the world down (cancellation, a peer's
				// failure) while frames were in flight. That is the same
				// quiet exit as the read path seeing the connection close —
				// only protocol violations deserve noise.
				return errConnDone
			}
			return fmt.Errorf("dist: worker %d: %w", rank, err)
		}
		if finished {
			return nil
		}
	}
}

// connIOErr distinguishes connection-level I/O failures (the world is
// being torn down around this worker) from protocol violations (a
// malformed or unexpected frame — a bug worth reporting loudly).
func connIOErr(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF)
}

// upstream is the worker's up stream: the opDeliver pushes and the bye,
// written by the control loop alone. Its contract is that the loop never
// waits for the socket. A flush makes one non-blocking write attempt
// inline — the uncontended case costs what a blocking write did, with no
// goroutine hand-off and no timer. Only when the kernel refuses bytes
// (the coordinator's rank is itself busy writing and not reading yet)
// does the unsent tail go to a drain goroutine that issues blocking
// writes; while it lives, the loop just appends frames, which the
// drainer picks up in order, and when it has caught up it exits and
// flushes are inline again. Pending deliveries therefore grow in worker
// memory, bounded by the program's in-flight bytes exactly as the
// in-process mailbox is, instead of stalling the down stream — a loop
// that stopped reading while its write blocked deadlocked against a
// coordinator rank doing the same thing in the other direction.
type upstream struct {
	conn net.Conn
	// try makes one non-blocking write attempt; nil when the connection
	// offers none (every flush then takes the drain path — correct,
	// slower).
	try func(p []byte) (int, error)

	mu       sync.Mutex
	caughtUp sync.Cond // the drainer exited
	pending  frameBuf
	draining bool
	err      error // first I/O error, latched
}

func newUpstream(conn net.Conn) *upstream {
	u := &upstream{conn: conn, try: nonblockingWrite(conn), pending: newFrameBuf()}
	u.caughtUp.L = &u.mu
	return u
}

// write appends one frame, flushing only when the pending buffer
// exceeds writerFlushBytes.
func (u *upstream) write(op byte, body []byte) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.err != nil {
		return u.err
	}
	u.pending.add(op, body)
	if len(u.pending.buf) >= writerFlushBytes {
		return u.flushLocked()
	}
	return nil
}

// flush puts the pending frames on the wire as far as the kernel takes
// them without blocking, and leaves the rest to the drainer.
func (u *upstream) flush() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.flushLocked()
}

func (u *upstream) flushLocked() error {
	if u.err != nil || u.draining || u.pending.frames == 0 {
		return u.err
	}
	out := u.pending.seal()
	sent := 0
	if u.try != nil {
		if sent, u.err = u.try(out); u.err != nil {
			return u.err
		}
	}
	if sent == len(out) {
		u.pending.reset()
		return nil
	}
	u.draining = true
	go u.drain(out[sent:], u.pending)
	u.pending = newFrameBuf()
	return nil
}

// drain writes tail — the unsent part of a sealed image held in hold —
// with blocking writes, then whatever the loop appended meanwhile, and
// exits once nothing is pending.
func (u *upstream) drain(tail []byte, hold frameBuf) {
	for {
		_, err := u.conn.Write(tail)
		u.mu.Lock()
		if err != nil {
			u.err = err
		}
		if u.err != nil || u.pending.frames == 0 {
			u.draining = false
			u.caughtUp.Broadcast()
			u.mu.Unlock()
			return
		}
		hold.reset()
		hold, u.pending = u.pending, hold
		tail = hold.seal()
		u.mu.Unlock()
	}
}

// sync flushes and waits until every pending byte is on the wire — the
// finish barrier's flush: the bye goes out last, after every delivery.
func (u *upstream) sync() error {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.flushLocked() //nolint:errcheck // latched in u.err, returned below
	for u.draining {
		u.caughtUp.Wait()
	}
	return u.err
}
