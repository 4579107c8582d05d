// Package dist is the remote execution backend: an SPMD world whose
// message fabric spans OS processes connected by sockets, with fault
// tolerance as a policy.
//
// The paper's archetype claim is that one communication skeleton runs on
// many execution substrates. The sim and real backends prove it for two
// in-process substrates; this package makes the Transport seam cross
// address spaces. A run launches (or attaches to) one worker process per
// rank and routes every Send, Recv, and RecvAny (and therefore every
// collective) through those workers over length-prefixed frames.
//
// The data plane has one route, destination-routed and
// push-all-the-way:
//
//	coordinator ── opSend ──> worker[dst]
//	coordinator <── opDeliver (eager push) ── worker[dst]
//
// A send travels down the destination rank's control connection; its
// worker pushes the body straight back up, and the coordinator banks it
// in a per-rank inbox so Recv and RecvAny are local pops — one worker
// visit and two socket crossings per message. A worker is an echo of its
// own rank's inbox and nothing else. Both ends coalesce back-to-back
// frames into one opBatch frame and flush on idle; the receiving rank's
// own goroutine reads its control connection, so a delivery wakes it
// straight from the socket. Send is buffered, as on every other backend:
// a worker never stops reading its down stream because its up stream is
// full (see upstream), so a program may have any number of sends in
// flight before its first receive. Self-spawned worlds speak the
// protocol over unix-domain sockets.
//
// Rank bodies execute as goroutines in the coordinating process (shipping
// code is out of scope), but every payload genuinely leaves the
// coordinator's address space as spmd wire-codec bytes and is
// reconstructed on receive — the bit-identical parity table across
// sim/real/dist is the proof the codec and routing are faithful.
// Self-sends short-circuit through the local inbox, still codec-encoded.
//
// Lifecycle: NewTransport takes parked workers from the process's pool
// (see workerPool) and spawns the rest (re-executing the current binary
// — see MaybeWorker — authenticated by a per-process secret), collects
// their hellos and assigns ranks; all n ready frames complete the
// world-start barrier, and a world that cannot start is its error
// ("dist: world start: …"). The transport drives the ranks itself
// (backend.Driver): each body runs on a goroutine of its own, which
// flushes the sends the body left buffered when it returns. Finish runs
// the finish/bye barrier and parks the workers, connections warm, for
// the next world. Messages and bytes are metered on the coordinator
// exactly as the in-process mailbox meters them.
//
// Liveness is one path under every policy. A per-world pinger writes an
// opPing down every connection each heartbeat interval, and the worker's
// opPong is consumed by the rank's own reader like any other frame: no
// coordinator goroutine reads a rank's connection. A rank that has waited
// interval × misses (WithHeartbeat) with nothing arriving has lost its
// worker, whether the process died, the connection closed, or the worker
// is wedged with its socket open.
//
// What a lost worker costs is the recovery policy, WithRecovery. Under
// the default budget of 0 the run fails with an error naming the rank,
// and every blocked receive unwinds with the cancellation sentinel.
// Under a non-zero budget (the registry's "elastic" entry, see Elastic)
// each rank keeps a checkpoint — the log of messages delivered to its
// body, the count of sends it performed, and the un-echoed suffix of
// frames written down its connection (what the worker echoed is banked in
// the inbox) — and a loss costs a re-execution: the attempt unwinds, a
// replacement worker comes from the pool, a respawn on the control
// listener (open for the process's life) or a spare WithWorkers address,
// the suffix is written down its connection again, and the body re-runs. Logged receives
// replay, the first sent sends are suppressed (not re-sent, not
// re-metered), and the attempt goes live where its predecessor died:
// results and meters are bit-identical to an uninterrupted run. Replay
// requires what every registered app satisfies: deterministic rank bodies
// whose writes to shared memory are idempotent.
//
// Faults are data (WithFaults): each completed rank operation is checked
// against the declared rules, with the operation's index in the rank's
// current attempt as the epoch. Kill kills the rank's worker, Drop closes
// its connection, Delay sleeps.
package dist

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// handshakeTimeout bounds world start, and each worker replacement: every
// worker must hello and ready within it.
const handshakeTimeout = 30 * time.Second

// runner is the dist backend: a Transport factory whose configuration
// (attach addresses, recovery budget, heartbeat) is fixed at
// construction. The registered default self-spawns localhost workers and
// fails fast.
type runner struct {
	// name is the registry name: "dist", or "elastic" (see Elastic).
	name string
	// attach lists pre-started worker control addresses (cmd/archworker
	// -listen); empty means self-spawn.
	attach []string
	// faults are the declared faults (none: nothing is injected).
	faults []Fault
	// maxRestarts bounds re-executions per rank (0: fail fast); deadline
	// bounds the world's time after its first restart.
	maxRestarts int
	deadline    time.Duration
	// hbInterval and hbMiss: the ping cadence, and how many intervals a
	// waiting rank hears nothing before its worker counts as lost.
	hbInterval time.Duration
	hbMiss     int
	observer   func(Stats)
}

// Stats summarizes one run's recovery activity, reported through
// WithObserver when the world finishes.
type Stats struct {
	// Workers counts the workers that joined the world: n at start plus
	// every replacement.
	Workers int
	// DeclaredDead counts workers lost mid-run.
	DeclaredDead int
	// Restarts counts rank re-executions (a rank re-executed twice counts
	// twice).
	Restarts int
	// Faults counts the declared faults that fired.
	Faults int
}

// Fault is one declared fault, checked after every completed rank
// operation. The first fault that matches an operation fires; one that
// has fired Count times no longer matches, so a re-executed rank passing
// the same epoch again does not re-fire it.
type Fault struct {
	// Rank matches the operating rank; AnyRank matches all.
	Rank int
	// Epoch matches the operation's index in the rank's current attempt;
	// AnyEpoch matches all.
	Epoch int
	// Count bounds the firings per world (0 means once).
	Count int
	// Action is what the fault does.
	Action Action
	// Delay is the sleep of Action Delay.
	Delay time.Duration
}

// AnyRank and AnyEpoch are the wildcard values of Fault.Rank and
// Fault.Epoch.
const (
	AnyRank  = -1
	AnyEpoch = -1
)

// Action is what a fault does when it fires. A Fault without one never
// fires.
type Action int

const (
	// Kill kills the rank's worker (an attached one loses its
	// connection) and unwinds the attempt at that program point.
	Kill Action = iota + 1
	// Drop closes the rank's connection, for the ordinary lost-worker
	// path to find.
	Drop
	// Delay sleeps the fault's Delay.
	Delay
)

func (a Action) String() string {
	switch a {
	case Kill:
		return "kill"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return "none"
	}
}

// fire consumes one firing of the first of faults that matches rank's
// operation at epoch, counting firings per rule in fired, and returns its
// index, or -1 when none matches.
func fire(faults []Fault, fired []int, rank, epoch int) int {
	for i, f := range faults {
		if f.Action == 0 || fired[i] >= max(f.Count, 1) ||
			(f.Rank != AnyRank && f.Rank != rank) || (f.Epoch != AnyEpoch && f.Epoch != epoch) {
			continue
		}
		fired[i]++
		return i
	}
	return -1
}

// Option configures a dist runner.
type Option func(*runner)

// WithWorkers attaches to pre-started workers at the given control
// addresses (see cmd/archworker) instead of self-spawning. A run of n
// processes uses the first n addresses; fewer than n is a run error.
// Under a recovery budget the addresses past the first n are spares: a
// rank that lost its worker dials them in turn, or its own address again
// when there are none (a listening worker serves any number of
// connections).
func WithWorkers(addrs ...string) Option {
	return func(r *runner) { r.attach = append([]string(nil), addrs...) }
}

// WithFaults declares faults, checked after every completed rank
// operation. Each world starts with every rule unfired; Stats.Faults
// reports how many fired. Tests and the chaos CI job use this to exercise
// failure paths deterministically.
func WithFaults(faults ...Fault) Option {
	return func(r *runner) { r.faults = append([]Fault(nil), faults...) }
}

// WithRecovery sets the recovery budget: a rank whose worker is lost is
// re-executed on a replacement at most maxRestarts times, and the world
// has at most deadline of wall-clock time after its first restart (none
// when deadline <= 0). Exceeding either fails the run with a clean error
// instead of looping. The default budget, 0, fails the run on the first
// lost worker and keeps no checkpoint.
func WithRecovery(maxRestarts int, deadline time.Duration) Option {
	return func(r *runner) { r.maxRestarts, r.deadline = maxRestarts, deadline }
}

// WithHeartbeat sets the ping interval and the number of intervals a
// rank waiting for a frame may hear nothing before its worker counts as
// lost (defaults 500ms and 4).
func WithHeartbeat(interval time.Duration, misses int) Option {
	return func(r *runner) { r.hbInterval, r.hbMiss = interval, misses }
}

// WithObserver reports the run's recovery stats when the world finishes,
// whether or not it failed.
func WithObserver(f func(Stats)) Option {
	return func(r *runner) { r.observer = f }
}

// New builds a dist backend runner. The zero configuration — what the
// registry's "dist" entry uses — runs each rank on a pooled localhost
// worker process, self-spawned by re-executing the current binary, so
// any binary whose main calls MaybeWorker supports it out of the box,
// and fails fast.
func New(opts ...Option) backend.Runner { return newRunner("dist", opts) }

// Elastic builds the fault-tolerant runner the registry's "elastic" entry
// uses: New under a recovery budget of 3 restarts per rank and 2 minutes,
// with opts applied after it.
func Elastic(opts ...Option) backend.Runner {
	return newRunner("elastic", append([]Option{WithRecovery(3, 2*time.Minute)}, opts...))
}

func newRunner(name string, opts []Option) *runner {
	r := &runner{name: name, hbInterval: 500 * time.Millisecond, hbMiss: 4}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

func (r *runner) Name() string { return r.name }

// Virtual reports false: dist runs are wall-clock measurements (and spawn
// real processes), so sweeps serialize them like the real backend's.
func (r *runner) Virtual() bool { return false }

func (r *runner) NewTransport(ctx context.Context, n int, m *machine.Model) (backend.Transport, error) {
	t, err := r.start(ctx, n)
	if err != nil {
		return nil, fmt.Errorf("dist: world start: %w", err)
	}
	return t, nil
}

// proc is one spawned worker process. Its wait goroutine reaps the
// process the moment it exits (no zombies, whether the exit is a crash
// mid-run, a kill at teardown, or a pooled worker dying idle) and closes
// dead, the signal world monitors and teardown select on.
type proc struct {
	cmd     *exec.Cmd
	waitErr error // valid after dead is closed
	dead    chan struct{}
}

func newProc(cmd *exec.Cmd) *proc {
	p := &proc{cmd: cmd, dead: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.dead)
	}()
	return p
}

// kill terminates the process and waits for the reaper; already-exited
// processes pass straight through.
func (p *proc) kill() {
	p.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-p.dead
}

// controlPlane is where self-spawned workers report in: the listener,
// the address workers are told to dial (the envWorker value), and the
// spawn token they authenticate with. On Linux it is an abstract
// unix-domain socket — unix sockets shave scheduler latency off every
// same-host crossing, and an abstract name puts nothing on disk that
// could outlive the process — and TCP loopback elsewhere. The name is
// public; the token is the secret. The pool owns it for the process's
// life, so a lost worker can be respawned on it at any time.
type controlPlane struct {
	ln       net.Listener
	addrSpec string
	token    string
	// acceptMu serializes spawn+accept phases: concurrent worlds, and
	// concurrent replacements in one world, share the listener, and
	// interleaved accepts would steal each other's workers.
	acceptMu sync.Mutex
}

func newControlPlane() (*controlPlane, error) {
	var secret [24]byte
	if _, err := rand.Read(secret[:]); err != nil {
		return nil, fmt.Errorf("spawn token: %w", err)
	}
	cp := &controlPlane{token: hex.EncodeToString(secret[:16])}
	if runtime.GOOS == "linux" {
		name := fmt.Sprintf("@archdist-%d-%s", os.Getpid(), hex.EncodeToString(secret[16:]))
		if ln, err := net.Listen("unix", name); err == nil {
			cp.ln, cp.addrSpec = ln, "unix:"+name
			return cp, nil
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("control listener: %w", err)
	}
	cp.ln, cp.addrSpec = ln, ln.Addr().String()
	return cp, nil
}

// workerPool is the process's one worker pool, which every self-spawned
// world draws on ("dist", "elastic", any runner without WithWorkers). A
// cleanly finished world parks its workers — process alive, control
// connection warm, its read buffer already holding the worker's next
// hello — and the next world starts with a handshake on those
// connections instead of a process spawn per rank. At most maxParked()
// workers park; Finish kills the rest, and failed or cancelled worlds
// kill all of theirs. A worker that dies while parked is discarded on
// reuse. A parked worker exits when its control connection closes, so
// none outlives the coordinator process, however that ends.
type workerPool struct {
	mu   sync.Mutex
	cp   *controlPlane
	idle []*workerConn
}

var pool workerPool

// maxParked bounds the pool by the host: one parked worker per CPU, and
// never fewer than the 8 ranks of a default-sized world (arch's default
// procs), so that world starts warm on a small host too.
func maxParked() int { return max(runtime.NumCPU(), 8) }

// ensure lazily builds the pool's control plane.
func (wp *workerPool) ensure() (*controlPlane, error) {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if wp.cp == nil {
		cp, err := newControlPlane()
		if err != nil {
			return nil, err
		}
		wp.cp = cp
	}
	return wp.cp, nil
}

// crashHookArmed reports whether the envCrashRank test hook is set. The
// hook reaches only workers spawned while it is, so meanwhile the pool
// neither lends nor parks.
func crashHookArmed() bool { return os.Getenv(envCrashRank) != "" }

// get pops an idle worker, skipping (and thereby discarding — the wait
// goroutine already reaped them) any that died while parked.
func (wp *workerPool) get() *workerConn {
	if crashHookArmed() {
		return nil
	}
	wp.mu.Lock()
	defer wp.mu.Unlock()
	for len(wp.idle) > 0 {
		wc := wp.idle[len(wp.idle)-1]
		wp.idle = wp.idle[:len(wp.idle)-1]
		select {
		case <-wc.proc.dead:
			wc.c.Close()
			continue
		default:
			return wc
		}
	}
	return nil
}

// put parks wc, reporting false when the pool is full.
func (wp *workerPool) put(wc *workerConn) bool {
	if crashHookArmed() {
		return false
	}
	wp.mu.Lock()
	defer wp.mu.Unlock()
	if len(wp.idle) >= maxParked() {
		return false
	}
	wp.idle = append(wp.idle, wc)
	return true
}

// start acquires the workers (pool and spawn, or attach) and runs the
// world-start barrier. On any error it tears down whatever it had
// started and returns the error.
func (r *runner) start(ctx context.Context, n int) (*transport, error) {
	t := &transport{
		ctx:      ctx,
		n:        n,
		r:        r,
		keep:     r.maxRestarts > 0,
		silence:  r.hbInterval * time.Duration(r.hbMiss),
		counters: make([]backend.CounterShard, n),
		sendBufs: make([][]byte, n),
		recvBufs: make([][]byte, n),
		ranks:    make([]rankState, n),
		fired:    make([]int, len(r.faults)),
		rec:      obs.RunRecorder(ctx, n, r.name),
	}
	ok := false
	defer func() {
		if !ok {
			t.teardown()
		}
	}()

	var addrs []string
	if len(r.attach) > 0 {
		if len(r.attach) < n {
			return nil, fmt.Errorf("%d attached workers for a world of %d", len(r.attach), n)
		}
		addrs = r.attach[:n]
	} else {
		cp, err := pool.ensure()
		if err != nil {
			return nil, err
		}
		t.cp = cp
	}
	deadline := time.Now().Add(handshakeTimeout)
	conns, err := t.acquire(n, addrs, deadline)
	if err != nil {
		return nil, err
	}
	t.conns = conns

	// All n workers present: assign ranks in arrival order and wait for
	// every ready — the world-start barrier.
	for rank, wc := range t.conns {
		if err := wc.assign(rank, n); err != nil {
			return nil, err
		}
	}
	for rank, wc := range t.conns {
		if err := wc.expectReady(rank, deadline); err != nil {
			return nil, err
		}
		wc.w.keep = t.keep
	}

	// The data plane: a per-rank coordinator inbox banking the worker's
	// eager opDeliver pushes. The rank's own goroutine reads its control
	// connection inside Recv/RecvAny (so a delivery wakes the waiting
	// rank directly from the socket — no relay goroutine on the critical
	// path); buffered sends flush at every rank's next blocking point and
	// when its body returns (see Drive).
	t.inboxes = make([]*backend.Inbox[inMsg], n)
	for i := range t.inboxes {
		t.inboxes[i] = backend.NewInbox[inMsg](n)
	}
	t.stats.Workers = n
	t.worldDone, t.pingDone = make(chan struct{}), make(chan struct{})
	for rank, wc := range t.conns {
		t.watch(rank, wc.proc)
	}
	go t.ping()
	if ctx.Done() != nil {
		t.stopCancel = context.AfterFunc(ctx, func() {
			t.fail(ctx.Err())
		})
	}
	t.begin = time.Now()
	ok = true
	return t, nil
}

// acquire brings up need workers, each past its hello: dialed at addrs
// (attach mode), taken warm from the pool, or spawned on the control
// plane. On error it closes what it had brought up; spawned processes
// are on t.procs already, for teardown to reap.
func (t *transport) acquire(need int, addrs []string, deadline time.Time) ([]*workerConn, error) {
	var wcs []*workerConn
	abandon := func(err error) ([]*workerConn, error) {
		for _, wc := range wcs {
			wc.c.Close()
		}
		return nil, err
	}
	if addrs != nil {
		for _, addr := range addrs {
			c, err := net.DialTimeout("tcp", addr, time.Until(deadline))
			if err != nil {
				return abandon(fmt.Errorf("dialing worker %s: %w", addr, err))
			}
			wc := newWorkerConn(c)
			wcs = append(wcs, wc)
			if err := wc.expectHello(deadline, ""); err != nil {
				return abandon(err)
			}
		}
		return wcs, nil
	}
	// Warm workers first: their next-world hello is already in the
	// connection buffer, so validation is a local read. A worker that
	// went bad while parked is discarded, not fatal.
	for len(wcs) < need {
		parked := pool.get()
		if parked == nil {
			break
		}
		wc := &workerConn{c: parked.c, br: parked.br, w: newWriter(parked.c), proc: parked.proc}
		if err := wc.expectHello(deadline, t.cp.token); err != nil {
			wc.c.Close()
			wc.proc.kill()
			continue
		}
		t.addProc(wc.proc)
		wcs = append(wcs, wc)
	}
	spawned, err := t.spawn(need-len(wcs), deadline)
	wcs = append(wcs, spawned...)
	if err != nil {
		return abandon(err)
	}
	return wcs, nil
}

// spawn launches need workers and accepts and authenticates their hellos
// on the control plane's listener. Every spawned process is recorded in
// t.procs immediately so teardown can reap it even when the handshake
// fails halfway.
func (t *transport) spawn(need int, deadline time.Time) ([]*workerConn, error) {
	if need == 0 {
		return nil, nil
	}
	cp := t.cp
	cp.acceptMu.Lock()
	defer cp.acceptMu.Unlock()
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	env := append(os.Environ(),
		envWorker+"="+cp.addrSpec,
		envToken+"="+cp.token)
	spawned := make(map[int]*proc, need)
	for i := 0; i < need; i++ {
		cmd := exec.Command(exe)
		cmd.Env = env
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("spawning worker: %w", err)
		}
		p := newProc(cmd)
		spawned[cmd.Process.Pid] = p
		t.addProc(p)
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	var wcs []*workerConn
	for len(wcs) < need {
		if d, ok := cp.ln.(deadliner); ok {
			d.SetDeadline(deadline) //nolint:errcheck // a failed deadline fails the Accept below
		}
		c, err := cp.ln.Accept()
		if err != nil {
			return wcs, fmt.Errorf("accepting workers (%d of %d connected; workers self-spawn by re-executing this binary — does its main call dist.MaybeWorker?): %w",
				len(wcs), need, err)
		}
		wc := newWorkerConn(c)
		if err := wc.expectHello(deadline, cp.token); err != nil {
			// Not our worker (stray connection, wrong token, stale world):
			// drop it before it can host anything and keep listening until
			// the deadline.
			c.Close()
			continue
		}
		p := spawned[wc.pid]
		if p == nil {
			// Right token, wrong process: a straggler from an earlier
			// world on the pool's listener. Its own world already killed
			// (or will kill) it; closing the connection hurries it along.
			c.Close()
			continue
		}
		wc.proc = p
		wcs = append(wcs, wc)
	}
	return wcs, nil
}

func init() {
	backend.Register(New())
	backend.Register(Elastic())
}

// workerConn is the coordinator's control connection to one rank's
// worker. After the world starts, writes go through the coalescing
// writer (any rank may send toward this connection's worker; writer
// serializes them) and reads belong to the connection's own rank's
// goroutine (inside Recv/RecvAny) until the finish barrier takes them
// over — the rank goroutines are gone by then. Only the rank's own
// goroutine replaces c and proc, under the transport's mutex; other
// goroutines read them under it. Close is safe concurrently (net.Conn
// guarantees it), which is how fail unwinds everything, including a rank
// blocked reading for a delivery.
type workerConn struct {
	c  net.Conn
	br *bufio.Reader
	w  *writer
	// proc is the worker's process; nil for attach-mode connections.
	proc *proc
	pid  int
	// poolable is set by the finish barrier on receipt of the worker's
	// bye: the worker is provably between worlds, so teardown may park
	// it in the pool instead of killing it.
	poolable bool
}

func newWorkerConn(c net.Conn) *workerConn {
	return &workerConn{c: c, br: bufio.NewReader(c), w: newWriter(c)}
}

// read returns the next frame of at most limit bytes by deadline:
// maxHandshakeFrame at handshake time (the peer has proved nothing yet),
// maxFrame in the finish barrier (stale deliveries may be large). Mid-run
// reads belong to the rank's own goroutine via popMsg.
func (wc *workerConn) read(deadline time.Time, limit uint32) (byte, []byte, error) {
	if err := wc.c.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	return readFrame(wc.br, limit)
}

// expectHello consumes the worker's hello frame, checking the spawn
// token when one is required.
func (wc *workerConn) expectHello(deadline time.Time, token string) error {
	op, body, err := wc.read(deadline, maxHandshakeFrame)
	if err != nil {
		return fmt.Errorf("awaiting hello: %w", err)
	}
	if op != opHello {
		return fmt.Errorf("expected hello frame, got op %d", op)
	}
	got, pid, err := parseHello(body)
	if err != nil {
		return err
	}
	if token != "" && got != token {
		return fmt.Errorf("hello with wrong spawn token")
	}
	wc.pid = pid
	return nil
}

// assign and expectReady are the two halves of a worker's admission as
// rank: world start assigns every rank before awaiting any ready.
func (wc *workerConn) assign(rank, n int) error {
	if err := writeFrame(wc.c, opAssign, assignBody(rank, n)); err != nil {
		return fmt.Errorf("assigning rank %d: %w", rank, err)
	}
	return nil
}

func (wc *workerConn) expectReady(rank int, deadline time.Time) error {
	op, _, err := wc.read(deadline, maxHandshakeFrame)
	if err != nil {
		return fmt.Errorf("awaiting ready from rank %d: %w", rank, err)
	}
	if op != opReady {
		return fmt.Errorf("rank %d sent op %d instead of ready", rank, op)
	}
	return nil
}

// inMsg is one banked message: the delivery header plus the opaque
// payload bytes the coordinator will decode.
type inMsg struct {
	src     int
	tag     int
	metered int
	payload []byte
}

// rankState is what one rank's goroutine keeps across its attempts: the
// fault-injection coordinate and, under a recovery budget, the
// checkpoint a re-execution replays.
type rankState struct {
	// epoch counts the current attempt's completed operations.
	epoch    int
	restarts int
	// log holds the messages delivered to the body, in program order;
	// cursor is the replay position (len(log) once the attempt is live).
	log    []inMsg
	cursor int
	// sent counts the sends performed across all attempts; sendIdx counts
	// the current attempt's, which are suppressed while sendIdx < sent.
	sent, sendIdx int
}

// lostWorker unwinds a rank's attempt when its worker is lost under a
// recovery budget: Drive re-executes the rank on a replacement.
type lostWorker struct {
	rank  int
	cause error
}

func (e *lostWorker) Error() string {
	return fmt.Sprintf("dist: rank %d lost its worker: %v", e.rank, e.cause)
}

// transport is the coordinator side of one dist run.
type transport struct {
	ctx   context.Context
	n     int
	begin time.Time
	r     *runner
	// keep is the recovery policy: checkpoints are kept and lost workers
	// replaced (a non-zero budget).
	keep bool
	// silence is how long a waiting rank hears nothing before its worker
	// counts as lost.
	silence time.Duration
	// cp is the pool's control plane, which spawned workers report to
	// (nil in attach mode).
	cp *controlPlane

	conns []*workerConn
	// procs holds every worker process this world owns (pool-acquired,
	// spawned at start, and respawned); teardown kills whichever were not
	// returned to the pool. Guarded by mu.
	procs []*proc
	// counters meter messages and bytes per sending rank, exactly as the
	// in-process mailbox does.
	counters []backend.CounterShard
	// sendBufs is per-source-rank scratch (rank-goroutine only) for
	// assembling send bodies without per-send allocation.
	sendBufs [][]byte
	// recvBufs is per-destination-rank scratch (rank-goroutine only) for
	// reading control frames without per-delivery allocation; popMsg's
	// fast path hands the payload to the decoder straight out of it.
	recvBufs [][]byte
	// inboxes bank eagerly pushed deliveries per destination rank;
	// Recv/RecvAny pop them locally. Only the rank's own goroutine pushes
	// to or takes from its inbox (the self-send in send, the banking and
	// the take in popMsg), and no rank ever waits on one, so they take no
	// lock.
	inboxes []*backend.Inbox[inMsg]
	// ranks is per-rank state, each entry touched only by its rank's
	// goroutine.
	ranks []rankState
	// rec is the run's flight recorder; nil (free) when tracing is off.
	rec *obs.Recorder

	mu        sync.Mutex
	err       error
	finishing bool
	stats     Stats
	fired     []int       // firings per declared fault
	spare     int         // next spare WithWorkers address
	recovery  *time.Timer // the recovery deadline, armed at the first restart

	// worldDone stops the pinger and releases the per-process monitors.
	worldDone chan struct{}
	pingDone  chan struct{}
	doneOnce  sync.Once
	monWG     sync.WaitGroup

	stopCancel func() bool
}

func (t *transport) addProc(p *proc) {
	t.mu.Lock()
	t.procs = append(t.procs, p)
	t.mu.Unlock()
}

// watch parks a monitor on rank's worker process until the world ends:
// a worker dying mid-run is a lost worker even while its rank computes.
func (t *transport) watch(rank int, p *proc) {
	if p == nil {
		return
	}
	t.monWG.Add(1)
	go func() {
		defer t.monWG.Done()
		select {
		case <-p.dead:
		case <-t.worldDone:
			return
		}
		t.mu.Lock()
		wc := t.conns[rank]
		if t.finishing || t.err != nil || wc.proc != p {
			t.mu.Unlock()
			return
		}
		if t.keep {
			// The rank's own reader finds the loss and recovers.
			wc.c.Close()
			t.mu.Unlock()
			return
		}
		t.mu.Unlock()
		t.fail(fmt.Errorf("dist: worker process for rank %d exited mid-run: %v", rank, p.waitErr))
	}()
}

// ping is the world's pinger: every heartbeat interval, an opPing down
// each connection, whose pong the rank's own reader consumes. A write
// error is the rank's reader's to find.
func (t *transport) ping() {
	defer close(t.pingDone)
	tick := time.NewTicker(t.r.hbInterval)
	defer tick.Stop()
	for {
		select {
		case <-t.worldDone:
			return
		case <-tick.C:
		}
		for _, wc := range t.conns {
			if wc.w.Write(opPing, nil) == nil {
				wc.w.Flush() //nolint:errcheck // see above
			}
		}
	}
}

// quiesce stops the pinger and releases the monitors: from here on a
// worker exit is expected, and only the finish barrier writes frames.
func (t *transport) quiesce() {
	if t.worldDone != nil {
		t.doneOnce.Do(func() {
			close(t.worldDone)
			<-t.pingDone
		})
	}
}

// fail records the run's first fatal error and closes every control
// connection, unwinding all blocked operations — a rank parked in a
// connection read waiting for a dead worker's delivery gets a read error
// and raises. After Finish has begun it is a no-op (workers exiting at
// world end are not failures).
func (t *transport) fail(err error) {
	t.mu.Lock()
	if t.finishing || t.err != nil {
		t.mu.Unlock()
		return
	}
	t.err = err
	for _, wc := range t.conns {
		wc.c.Close()
	}
	t.mu.Unlock()
}

func (t *transport) runErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// raise unwinds rank's operation after its worker was lost, preferring
// the run's root cause (recorded fail, then context cancellation) over
// the local symptom. Under a recovery budget the attempt unwinds to be
// re-executed; otherwise the loss fails the run.
func (t *transport) raise(rank int, cause error) {
	if err := t.runErr(); err != nil {
		panic(backend.Canceled(err))
	}
	if err := t.ctx.Err(); err != nil {
		panic(backend.Canceled(err))
	}
	if t.keep {
		panic(backend.Canceled(&lostWorker{rank: rank, cause: cause}))
	}
	err := fmt.Errorf("dist: rank %d worker connection: %w", rank, cause)
	t.fail(err)
	panic(backend.Canceled(err))
}

// abort fails the run with err, which no re-execution could mend, and
// unwinds the calling rank.
func (t *transport) abort(err error) {
	t.fail(err)
	panic(backend.Canceled(t.runErr()))
}

// Charge discards modeled computation like the real backend: computation
// takes real time here.
func (t *transport) Charge(rank int, sec float64) {}

// SetResident is a no-op: the host's memory system pages for real.
func (t *transport) SetResident(rank int, bytes float64) {}

func (t *transport) Clock(rank int) float64 { return time.Since(t.begin).Seconds() }

func (t *transport) Recorder() *obs.Recorder { return t.rec }

// Idle cannot advance a wall clock.
func (t *transport) Idle(rank int, at float64) {}

// opDone closes one rank operation: it advances the attempt's epoch and
// checks the declared faults against the completed operation's program
// point.
func (t *transport) opDone(rank int) {
	rs := &t.ranks[rank]
	epoch := rs.epoch
	rs.epoch++
	if len(t.r.faults) == 0 {
		return
	}
	t.mu.Lock()
	i := fire(t.r.faults, t.fired, rank, epoch)
	if i >= 0 {
		t.stats.Faults++
	}
	t.mu.Unlock()
	if i < 0 {
		return
	}
	f := t.r.faults[i]
	if t.rec != nil {
		t.rec.Emit(rank, obs.Event{T: t.rec.Now(), Peer: -1, Tag: int32(f.Action), Kind: obs.KindFault})
	}
	wc := t.conns[rank] // this goroutine is the only one that replaces its fields
	switch f.Action {
	case Kill:
		wc.c.Close()
		if wc.proc != nil {
			wc.proc.kill()
		}
		t.raise(rank, errors.New("worker killed by fault injection"))
	case Drop:
		wc.c.Close()
	case Delay:
		time.Sleep(f.Delay)
	}
}

// Send appends the message to the destination rank's connection, whose
// worker pushes the body back up as the delivery. The frame only reaches
// the wire at the next flush point (a receive, a body returning, a ping,
// or the writer's size threshold), which is the write-coalescing
// boundary: a burst of sends goes out as one opBatch frame. A
// re-executed attempt's sends up to its checkpoint are suppressed.
func (t *transport) Send(src, dst, tag int, data any, bytes int) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	kind := obs.KindSend
	if rs := &t.ranks[src]; rs.sendIdx < rs.sent {
		// This send happened in an earlier attempt: its message is banked,
		// logged or un-echoed at dst, and its meter charge is on the books.
		rs.sendIdx++
		kind = obs.KindResendSuppressed
	} else {
		t.send(src, dst, tag, data, bytes)
		if t.keep {
			rs.sent++
			rs.sendIdx++
		}
	}
	if t.rec != nil {
		t.rec.Emit(src, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: kind})
	}
	t.opDone(src)
}

func (t *transport) send(src, dst, tag int, data any, bytes int) {
	if src == dst {
		// Self-send: codec-encode and bank in the local inbox directly,
		// the cross-process analogue of the in-process mailbox's local
		// delivery. Unmetered, like every self-send.
		body, err := spmd.AppendPayload(nil, data)
		if err != nil {
			panic(fmt.Sprintf("dist: process %d: %v", src, err))
		}
		t.inboxes[src].Push(src, inMsg{src: src, tag: tag, metered: bytes, payload: body})
		return
	}
	hdr := appendMsgHeader(t.sendBufs[src][:0], src, tag, bytes)
	body, err := spmd.AppendPayload(hdr, data)
	if err != nil {
		// A payload outside the wire codec is a programming error of the
		// same class as a tag mismatch: panic with the reason rather
		// than poisoning the run with a substrate error.
		panic(fmt.Sprintf("dist: process %d: %v", src, err))
	}
	werr := t.conns[dst].w.Write(opSend, body)
	t.sendBufs[src] = body[:0]
	// Under a recovery budget the frame is on dst's un-echoed suffix
	// whatever the write did: a dead worker at dst is dst's to replace.
	if werr != nil && !t.keep {
		t.raise(src, werr)
	}
	t.counters[src].Count(bytes)
}

// flush puts every connection's buffered frames on the wire — the
// coalescing boundary, hit whenever a rank is about to block and when its
// body returns. Flushing all connections rather than just the rank's own
// is what lets Send stay fire-and-forget with no flusher goroutine:
// whichever rank blocks first drives everyone's pending bytes out, and an
// idle writer's flush is a mutex acquisition, not a syscall. It returns
// the first error that is rank's to handle: any, when failing fast; its
// own connection's, under a recovery budget.
func (t *transport) flush(rank int) error {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	var first error
	frames, batched := 0, 0
	for i, wc := range t.conns {
		n, err := wc.w.FlushN()
		if err != nil && first == nil && (i == rank || !t.keep) {
			first = err
		}
		frames += n
		if n > 1 {
			batched++
		}
	}
	if frames > 0 && t.rec != nil {
		// Bytes carries the frame count for flush events, and the number
		// of connections whose frames were coalesced for batch events.
		t.rec.Emit(rank, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(frames), Peer: -1, Kind: obs.KindFlush})
		if batched > 0 {
			t.rec.Emit(rank, obs.Event{T: start, Bytes: int64(batched), Peer: -1, Kind: obs.KindBatch})
		}
	}
	return first
}

// popMsg is the receive engine, run entirely in the receiving rank's
// goroutine: flush every buffered send (progress other ranks may depend
// on), then satisfy the targeted (src >= 0) or any-source receive from
// the inbox, reading the rank's control connection for eagerly pushed
// deliveries until the wanted one arrives and banking every other
// delivery for later receives. Blocking happens only in the connection
// read, so a delivery wakes the waiting rank straight from the socket —
// no relay goroutine — and a failed world unwinds it by closing the
// connection. A read that hears nothing, not even a pong, for the
// silence window has lost the worker.
//
// The common case — the wanted message is the next delivery off the wire
// — never touches the inbox: frames land in the rank's reused read
// scratch and the first match is returned directly, so the returned
// payload is only valid until the rank's next transport operation (the
// callers decode immediately). Only bypassed deliveries are copied out
// of the scratch and banked. A first-match direct consume is safe on
// both FIFO orders: with an empty per-source queue the first frame from
// src IS the oldest from src, and with an empty inbox the first frame of
// the batch IS the oldest cross-source arrival. Under a recovery budget
// each delivery's payload is instead the un-echoed copy it retires,
// which the delivery log may keep.
func (t *transport) popMsg(dst, src int) inMsg {
	if err := t.flush(dst); err != nil {
		t.raise(dst, err)
	}
	inbox := t.inboxes[dst]
	wc := t.conns[dst]
	for {
		var m inMsg
		var ok bool
		if src >= 0 {
			m, ok = inbox.Pop(src)
		} else {
			_, m, ok = inbox.PopAny()
		}
		if ok {
			return m
		}
		if !pendingFrame(wc.br) {
			wc.c.SetReadDeadline(time.Now().Add(t.silence)) //nolint:errcheck // a closed connection fails the read
		}
		op, body, err := readFrameInto(wc.br, &t.recvBufs[dst])
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = fmt.Errorf("worker silent for %v (%d heartbeats missed)", t.silence, t.r.hbMiss)
			}
			t.raise(dst, err)
		}
		err = forEachFrame(op, body, func(op byte, b []byte) error {
			switch op {
			case opPong:
				if t.rec != nil {
					t.rec.Emit(dst, obs.Event{T: t.rec.Now(), Peer: -1, Kind: obs.KindHeartbeat})
				}
				return nil
			case opDeliver:
			default:
				return fmt.Errorf("unexpected control op %d", op)
			}
			if t.keep {
				// The worker echoes in write order: this is the oldest
				// un-echoed frame.
				if b = wc.w.echoed(len(b)); b == nil {
					return errors.New("worker echoed a frame that was never sent")
				}
			}
			from, tag, metered, payload, err := parseMsgHeader(b)
			if err != nil {
				return err
			}
			if from < 0 || from >= t.n {
				return fmt.Errorf("delivery from invalid rank %d", from)
			}
			if t.rec != nil {
				t.rec.Emit(dst, obs.Event{T: t.rec.Now(), Bytes: int64(metered), Peer: int32(from), Tag: int32(tag), Kind: obs.KindDeliver})
			}
			if !ok && (src < 0 || from == src) {
				m = inMsg{src: from, tag: tag, metered: metered, payload: payload}
				ok = true
				return nil
			}
			// Not the wanted message (or one already matched): bank it,
			// copied unless owned — the scratch underneath is reused on
			// the next read.
			if !t.keep {
				payload = append([]byte(nil), payload...)
			}
			inbox.Push(from, inMsg{src: from, tag: tag, metered: metered, payload: payload})
			return nil
		})
		if err != nil {
			t.raise(dst, fmt.Errorf("rank %d control stream: %w", dst, err))
		}
		if ok {
			return m
		}
	}
}

func (t *transport) Recv(src, dst, tag int) any {
	_, data := t.recv(dst, src, tag)
	return data
}

func (t *transport) RecvAny(dst, tag int) (int, any) {
	return t.recv(dst, -1, tag)
}

// recv delivers dst's next message from src (from any source, in arrival
// order, when src < 0): replayed from the delivery log while a
// re-executed attempt is behind its checkpoint, live after that.
func (t *transport) recv(dst, src, tag int) (int, any) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	rs := &t.ranks[dst]
	var m inMsg
	kind := obs.KindRecv
	if rs.cursor < len(rs.log) {
		m, kind = rs.log[rs.cursor], obs.KindReplay
		if src >= 0 && m.src != src {
			t.abort(fmt.Errorf("dist: rank %d replay diverged: log has a message from %d, program asked for %d (rank bodies must be deterministic)", dst, m.src, src))
		}
		rs.cursor++
	} else {
		m = t.popMsg(dst, src)
		if t.keep {
			rs.log = append(rs.log, m)
			rs.cursor++
		}
		if src < 0 {
			kind = obs.KindRecvAny
		}
	}
	if m.tag != tag {
		if src < 0 {
			panic(fmt.Sprintf("dist: process %d expected tag %d from any source, got %d from %d", dst, tag, m.tag, m.src))
		}
		panic(fmt.Sprintf("dist: process %d expected tag %d from %d, got %d", dst, tag, src, m.tag))
	}
	// Decoded fresh every time: a replayed value never aliases memory an
	// earlier attempt's body mutated.
	data, _, err := spmd.DecodePayload(m.payload)
	if err != nil {
		t.abort(fmt.Errorf("dist: rank %d decoding message from %d: %w", dst, m.src, err))
	}
	if t.rec != nil {
		t.rec.Emit(dst, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(m.metered), Peer: int32(m.src), Tag: int32(tag), Kind: kind})
	}
	t.opDone(dst)
	return m.src, data
}

// Drive implements backend.Driver: each rank's body runs on a goroutine
// of its own, which flushes whatever sends the body left buffered when it
// returns — the body will never reach another flush point, and its peers
// may be blocked on those messages. Under a recovery budget that
// goroutine also re-executes the body each time the rank's worker is
// lost. Drive returns the lowest rank's error.
func (t *transport) Drive(run func(rank int) error) error {
	errs := make([]error, t.n)
	var wg sync.WaitGroup
	wg.Add(t.n)
	for rank := range t.n {
		go func() {
			defer wg.Done()
			errs[rank] = t.drive(rank, run)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *transport) drive(rank int, run func(rank int) error) error {
	for {
		err := run(rank)
		if ferr := t.flush(rank); ferr != nil && !t.keep {
			t.fail(fmt.Errorf("dist: rank %d final flush: %w", rank, ferr))
		}
		var lost *lostWorker
		if errors.As(err, &lost) {
			err = t.recover(rank, lost)
			if err == nil {
				continue
			}
		}
		if err != nil {
			// Peers blocked on this rank must not wait for it.
			t.fail(err)
		}
		return err
	}
}

// recover readies rank for re-execution after it lost its worker, within
// the recovery budget: the lost worker is declared dead, a replacement
// takes its place, and the attempt's view of the checkpoint rewinds.
func (t *transport) recover(rank int, lost *lostWorker) error {
	rs := &t.ranks[rank]
	rs.restarts++
	t.mu.Lock()
	if t.err != nil {
		t.mu.Unlock()
		return t.err
	}
	t.stats.DeclaredDead++
	t.stats.Restarts++
	if d := t.r.deadline; t.recovery == nil && d > 0 {
		// Armed at the first restart, the deadline bounds the whole
		// recovery phase: a world that cannot stop restarting fails.
		t.recovery = time.AfterFunc(d, func() {
			t.fail(fmt.Errorf("dist: recovery deadline (%v) exceeded", d))
		})
	}
	t.mu.Unlock()
	if t.rec != nil {
		t.rec.EmitSys(obs.Event{T: t.rec.Now(), Rank: int32(rank), Peer: -1, Kind: obs.KindDeclaredDead})
	}
	if rs.restarts > t.r.maxRestarts {
		return fmt.Errorf("dist: rank %d exceeded its restart budget (%d restarts): %w", rank, t.r.maxRestarts, lost)
	}
	if err := t.replace(rank); err != nil {
		return fmt.Errorf("dist: rank %d: replacing its worker: %w", rank, err)
	}
	rs.cursor, rs.sendIdx, rs.epoch = 0, 0, 0
	return nil
}

// replace gives rank a new worker: the old connection is closed and its
// process killed, a replacement is acquired and admitted as rank, and
// the writer puts the old worker's un-echoed suffix on the new
// connection. A replacement that dies at once is found by the rank's
// next read, like any other loss.
func (t *transport) replace(rank int) error {
	wc := t.conns[rank]
	var addrs []string
	t.mu.Lock()
	if a := t.r.attach; len(a) > 0 {
		addrs = []string{a[rank]}
		if spares := a[t.n:]; len(spares) > 0 {
			addrs[0] = spares[t.spare%len(spares)]
			t.spare++
		}
	}
	t.mu.Unlock()
	wc.c.Close()
	if wc.proc != nil {
		wc.proc.kill()
	}
	deadline := time.Now().Add(handshakeTimeout)
	wcs, err := t.acquire(1, addrs, deadline)
	if err != nil {
		return err
	}
	nw := wcs[0]
	if err = nw.assign(rank, t.n); err == nil {
		err = nw.expectReady(rank, deadline)
	}
	t.mu.Lock()
	if err == nil {
		err = t.err
	}
	if err != nil {
		t.mu.Unlock()
		nw.c.Close()
		return err
	}
	wc.c, wc.br, wc.proc = nw.c, nw.br, nw.proc
	t.stats.Workers++
	id := t.stats.Workers - 1
	t.mu.Unlock()
	t.watch(rank, nw.proc)
	if t.rec != nil {
		t.rec.EmitSys(obs.Event{T: t.rec.Now(), Rank: int32(rank), Peer: int32(id), Kind: obs.KindLease})
	}
	wc.w.retarget(nw.c) //nolint:errcheck // latched: the rank's next flush finds it
	return nil
}

// Finish runs the world-finish barrier (finish/bye with every live
// worker), tears the substrate down — parking cleanly finished workers
// in the pool — reports the recovery stats, and assembles the run
// summary.
func (t *transport) Finish() backend.Result {
	elapsed := time.Since(t.begin).Seconds()
	t.mu.Lock()
	t.finishing = true
	failedErr, stats := t.err, t.stats
	t.mu.Unlock()
	if t.stopCancel != nil {
		t.stopCancel()
		t.stopCancel = nil
	}
	t.quiesce()
	if failedErr == nil && t.ctx.Err() == nil {
		deadline := time.Now().Add(10 * time.Second)
		for _, wc := range t.conns {
			// Through the writer so the finish frame orders after any
			// still-buffered sends.
			wc.w.Write(opFinish, nil) //nolint:errcheck // teardown is best-effort
			wc.w.Flush()              //nolint:errcheck
		}
		// The rank goroutines are gone (Drive joined them), so the barrier
		// owns the reads now: drain each connection to its bye, skipping
		// stale deliveries nobody will receive and pongs. A worker's bye
		// proves it is between worlds — exactly the state the pool parks.
		for _, wc := range t.conns {
			for {
				op, body, err := wc.read(deadline, maxFrame)
				if err != nil {
					break // dead or deadline: either way this world is over
				}
				bye := false
				forEachFrame(op, body, func(op byte, b []byte) error { //nolint:errcheck // drain
					if op == opBye {
						bye = true
					}
					return nil
				})
				if bye {
					wc.poolable = true
					break
				}
			}
		}
	}
	t.teardown()
	if t.r.observer != nil {
		t.r.observer(stats)
	}
	res := backend.Result{Makespan: elapsed, Clocks: make([]float64, t.n)}
	for i := range res.Clocks {
		res.Clocks[i] = elapsed
	}
	res.Msgs, res.Bytes = backend.SumCounters(t.counters)
	return res
}

// teardown releases the substrate: pinger stopped, monitors unparked,
// and every worker either parked in the pool (spawned, bye received,
// room in the pool) or closed and killed. Workers exit on their own once
// their control connection closes; the kill is the backstop that bounds
// the reap.
func (t *transport) teardown() {
	if t.stopCancel != nil {
		t.stopCancel()
		t.stopCancel = nil
	}
	t.mu.Lock()
	t.finishing = true
	if t.recovery != nil {
		t.recovery.Stop()
	}
	t.mu.Unlock()
	t.quiesce()
	pooled := make(map[*proc]bool)
	for _, wc := range t.conns {
		if wc.poolable && wc.proc != nil {
			// The worker's next hello is already on its way up this
			// connection; the next world's handshake picks it up.
			wc.c.SetReadDeadline(time.Time{}) //nolint:errcheck // park with a clean slate
			if pool.put(wc) {
				pooled[wc.proc] = true
				continue
			}
		}
		wc.c.Close()
	}
	for _, p := range t.procs {
		if !pooled[p] {
			p.kill()
		}
	}
	t.monWG.Wait()
	t.procs = nil
}
