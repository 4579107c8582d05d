// Package dist is the distributed execution backend: an SPMD world whose
// message fabric spans OS processes connected by sockets.
//
// The paper's archetype claim is that one communication skeleton runs on
// many execution substrates. The sim and real backends prove it for two
// in-process substrates; this package makes the Transport seam cross
// address spaces. A run on the dist backend launches (or attaches to) N
// worker processes — one per rank — and routes every Send, Recv, and
// RecvAny (and therefore every collective, which is built from them)
// through those workers over length-prefixed frames.
//
// The data plane has one route, destination-routed and
// push-all-the-way:
//
//	coordinator ── opSend ──> worker[dst]
//	coordinator <── opDeliver (eager push) ── worker[dst]
//
// A send travels down the destination rank's control connection; its
// worker pushes the body straight back up as an opDeliver, and the
// coordinator banks it in a per-rank inbox so Recv and RecvAny are local
// pops — one worker visit and two socket crossings per message, no
// request/response round trip per receive. A worker is an echo of its
// own rank's inbox and nothing else: it binds no listener and talks to
// no other worker. Both ends coalesce back-to-back frames into one
// multi-message opBatch frame and flush on idle; the receiving rank's
// own goroutine reads its control connection, so a delivery wakes it
// straight from the socket with no relay goroutine on the critical path.
// Send is buffered, as on every other backend: a worker never stops
// reading its down stream because its up stream is full (see upstream),
// so a coordinator write always completes and a program may have any
// number of sends in flight before its first receive. Self-spawned
// worlds speak the control protocol over unix-domain sockets.
//
// Rank bodies execute as goroutines in the coordinating process (they are
// ordinary Go closures; shipping code is out of scope), but every payload
// genuinely leaves the coordinator's address space as spmd wire-codec
// bytes, crosses into a worker process, and is reconstructed on receive —
// the bit-identical parity table across sim/real/dist is the proof the
// codec and routing are faithful. (Self-sends short-circuit through the
// local inbox, still codec-encoded, exactly as the in-process backends
// deliver them locally.)
//
// Lifecycle: NewTransport spawns the workers (by default re-executing the
// current binary — see MaybeWorker — authenticated by a per-pool secret),
// collects their hellos, and assigns ranks; all n ready frames complete
// the world-start barrier. A world that cannot start is NewTransport's
// error ("dist: world start: …"), returned by Run before any rank body
// executes. Finish runs the
// mirror-image barrier (finish/bye), then releases the processes. With
// WithWorkerPool, cleanly finished workers — their control connections
// still warm — go back to a runner-owned pool, and the next world's start
// is a handshake on an existing connection instead of a process spawn.
// Messages and bytes are metered on the coordinator exactly as the
// in-process mailbox meters them, so cost accounting is identical across
// backends.
//
// Failure is fail-fast: cancelling the run's context, or any worker
// process dying mid-run, closes every control connection and every
// coordinator inbox; blocked receives unwind with the same cancellation
// sentinel the in-process mailbox raises, and the run returns an error
// instead of hanging. Failed worlds never return workers to the pool.
package dist

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// runner is the dist backend: a Transport factory whose configuration
// (spawn command or attach addresses, handshake timeout) is fixed at
// construction. The registered default self-spawns localhost workers.
type runner struct {
	// attach lists pre-started worker control addresses (cmd/archworker
	// -listen); empty means self-spawn.
	attach []string
	// workerCmd overrides the spawned command (default: this binary,
	// relying on MaybeWorker). The coordinator address and world secret
	// travel in the environment either way.
	workerCmd []string
	// handshake bounds world start: every worker must hello and ready
	// within it.
	handshake time.Duration
	// inj is the fault-injection seam (nil injects nothing).
	inj *faultinject.Injector
	// pool, when non-nil, keeps cleanly finished self-spawned workers
	// (process + warm control connection) for the runner's next world.
	pool *workerPool
}

// Option configures a dist runner.
type Option func(*runner)

// WithWorkers attaches to pre-started workers at the given control
// addresses (see cmd/archworker) instead of self-spawning. A run of n
// processes uses the first n addresses; fewer than n is a run error.
func WithWorkers(addrs ...string) Option {
	return func(r *runner) { r.attach = append([]string(nil), addrs...) }
}

// WithWorkerCommand spawns workers by running the given command instead
// of re-executing the current binary. The command must end up in
// JoinWorld — the usual shape is a binary whose main calls MaybeWorker
// (the coordinator address and world secret are passed in the
// environment), wrapped in whatever launcher (container, numactl, ssh to
// localhost) the deployment needs.
func WithWorkerCommand(name string, args ...string) Option {
	return func(r *runner) { r.workerCmd = append([]string{name}, args...) }
}

// WithHandshakeTimeout bounds how long NewTransport waits for all workers
// to connect and ready (default 30s).
func WithHandshakeTimeout(d time.Duration) Option {
	return func(r *runner) { r.handshake = d }
}

// WithInjector installs a fault injector consulted before every control
// I/O: hook points "dist.send" and "dist.recv", with the rank's operation
// index as the epoch. Drop closes that rank's control connection (the run
// then fails through the ordinary lost-worker path); Delay sleeps before
// the operation. Tests and the chaos CI job use this to exercise failure
// paths deterministically.
func WithInjector(in *faultinject.Injector) Option {
	return func(r *runner) { r.inj = in }
}

// WithWorkerPool reuses worker processes across this runner's worlds: a
// cleanly finished world parks its workers — processes alive, control
// connections warm — in a runner-owned pool, and the next world starts
// with a handshake on those connections instead of a process spawn per
// rank (a ~50× cut in world-start latency on a loopback host). Failed or
// cancelled worlds kill their workers instead of pooling them, and a
// pooled worker that dies while idle is discarded on reuse. Pooled
// workers live until the coordinator process exits (their connections
// close with it); use the default spawn-per-world mode when worker
// processes must not outlive their run.
func WithWorkerPool() Option {
	return func(r *runner) { r.pool = &workerPool{} }
}

// New builds a dist backend runner. The zero configuration — what the
// registry's "dist" entry uses — self-spawns one localhost worker process
// per rank by re-executing the current binary, so any binary whose main
// calls MaybeWorker supports it out of the box.
func New(opts ...Option) backend.Runner {
	r := &runner{handshake: 30 * time.Second}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

func (r *runner) Name() string { return "dist" }

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

// controlPlane is where workers report in: the listener, the address
// workers are told to dial (the envWorker value), and the spawn token
// they authenticate with. Self-spawned worlds get a unix-domain socket in
// a private temp dir — same-host crossings are what the socket carries,
// and unix sockets shave scheduler latency off every one — falling back
// to TCP loopback where unix sockets are unavailable. Ephemeral for a
// spawn-per-world runner, pool-owned (and pool-lived) for a pooled one.
type controlPlane struct {
	ln       net.Listener
	addrSpec string
	token    string
	dir      string // temp dir holding the unix socket; "" for TCP
	// acceptMu serializes spawn+accept phases: concurrent worlds on one
	// pooled runner share the listener, and interleaved accepts would
	// steal each other's workers.
	acceptMu sync.Mutex
}

func newControlPlane() (*controlPlane, error) {
	var token [16]byte
	if _, err := rand.Read(token[:]); err != nil {
		return nil, fmt.Errorf("spawn token: %w", err)
	}
	cp := &controlPlane{token: hex.EncodeToString(token[:])}
	if dir, err := os.MkdirTemp("", "archdist-*"); err == nil {
		path := filepath.Join(dir, "ctl.sock")
		if ln, err := net.Listen("unix", path); err == nil {
			cp.ln, cp.addrSpec, cp.dir = ln, "unix:"+path, dir
			return cp, nil
		}
		os.RemoveAll(dir) //nolint:errcheck // best-effort
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("control listener: %w", err)
	}
	cp.ln, cp.addrSpec = ln, ln.Addr().String()
	return cp, nil
}

func (cp *controlPlane) close() {
	cp.ln.Close()
	if cp.dir != "" {
		os.RemoveAll(cp.dir) //nolint:errcheck // best-effort
	}
}

// pooledWorker is a parked worker between worlds: its process, its warm
// control connection, and the connection's read buffer (which already
// holds the hello the worker sent eagerly after its last bye).
type pooledWorker struct {
	p  *proc
	c  net.Conn
	br *bufio.Reader
}

// workerPool parks cleanly finished workers between a runner's worlds.
type workerPool struct {
	mu   sync.Mutex
	cp   *controlPlane
	idle []*pooledWorker
}

// ensure lazily builds the pool's control plane; pooled workers must all
// report to one listener with one token for the life of the runner.
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

// get pops an idle worker, skipping (and thereby discarding — the wait
// goroutine already reaped them) any that died while parked.
func (wp *workerPool) get() *pooledWorker {
	wp.mu.Lock()
	defer wp.mu.Unlock()
	for len(wp.idle) > 0 {
		pw := wp.idle[len(wp.idle)-1]
		wp.idle = wp.idle[:len(wp.idle)-1]
		select {
		case <-pw.p.dead:
			pw.c.Close()
			continue
		default:
			return pw
		}
	}
	return nil
}

func (wp *workerPool) put(pw *pooledWorker) {
	wp.mu.Lock()
	wp.idle = append(wp.idle, pw)
	wp.mu.Unlock()
}

// start acquires the workers (pool, spawn, or attach) and runs the
// world-start barrier. On any error it tears down whatever it had
// started and returns the error.
func (r *runner) start(ctx context.Context, n int) (*transport, error) {
	t := &transport{
		ctx:      ctx,
		n:        n,
		r:        r,
		conns:    make([]*workerConn, 0, n),
		counters: make([]shard, n),
		sendBufs: make([][]byte, n),
		recvBufs: make([][]byte, n),
		ops:      make([]int, n),
		inj:      r.inj,
		rec:      obs.RunRecorder(ctx, n, "dist"),
	}
	ok := false
	defer func() {
		if !ok {
			t.teardown()
		}
	}()

	deadline := time.Now().Add(r.handshake)

	switch {
	case len(r.attach) > 0:
		if len(r.attach) < n {
			return nil, fmt.Errorf("%d attached workers for a world of %d", len(r.attach), n)
		}
		for i := 0; i < n; i++ {
			c, err := net.DialTimeout("tcp", r.attach[i], time.Until(deadline))
			if err != nil {
				return nil, fmt.Errorf("dialing worker %d: %w", i, err)
			}
			t.conns = append(t.conns, newWorkerConn(c))
		}
		for _, wc := range t.conns {
			if err := wc.expectHello(deadline, ""); err != nil {
				return nil, err
			}
		}
	case r.pool != nil:
		cp, err := r.pool.ensure()
		if err != nil {
			return nil, err
		}
		// Warm workers first: their next-world hello is already in the
		// connection buffer, so validation is a local read. A worker that
		// went bad while parked is discarded, not fatal.
		for len(t.conns) < n {
			pw := r.pool.get()
			if pw == nil {
				break
			}
			wc := &workerConn{c: pw.c, br: pw.br, w: newWriter(pw.c), proc: pw.p}
			if err := wc.expectHello(deadline, cp.token); err != nil {
				wc.c.Close()
				pw.p.kill()
				continue
			}
			t.conns = append(t.conns, wc)
			t.procs = append(t.procs, pw.p)
		}
		if err := r.spawnInto(t, cp, n, deadline); err != nil {
			return nil, err
		}
	default:
		cp, err := newControlPlane()
		if err != nil {
			return nil, err
		}
		defer cp.close()
		if err := r.spawnInto(t, cp, n, deadline); err != nil {
			return nil, err
		}
	}

	// All n workers present: assign ranks in arrival order and wait for
	// every ready — the world-start barrier.
	for rank, wc := range t.conns {
		if err := WriteFrame(wc.c, opAssign, assignBody(rank, n)); err != nil {
			return nil, fmt.Errorf("assigning rank %d: %w", rank, err)
		}
	}
	for rank, wc := range t.conns {
		op, _, err := wc.read(deadline, maxHandshakeFrame)
		if err != nil {
			return nil, fmt.Errorf("awaiting ready from rank %d: %w", rank, err)
		}
		if op != opReady {
			return nil, fmt.Errorf("rank %d sent op %d instead of ready", rank, op)
		}
	}

	// The data plane: a per-rank coordinator inbox banking the worker's
	// eager opDeliver pushes. The rank's own goroutine reads its control
	// connection inside Recv/RecvAny (so a delivery wakes the waiting
	// rank directly from the socket — no relay or flusher goroutine on
	// the critical path); buffered sends flush at every rank's next
	// blocking point, and the rank-return hook (see RankReturned) is the
	// backstop for a rank whose body ends with sends still buffered.
	t.inboxes = make([]*inQueue, n)
	for i := range t.inboxes {
		t.inboxes[i] = newInQueue(n)
	}
	for _, wc := range t.conns {
		wc.c.SetReadDeadline(time.Time{}) //nolint:errcheck // clear the handshake deadline
	}

	// Monitors: a worker process dying mid-run fails the whole world
	// instead of hanging ranks that wait for its messages. Each monitor
	// parks on its process's death signal until the world ends.
	t.worldDone = make(chan struct{})
	for rank, wc := range t.conns {
		if wc.proc == nil {
			continue
		}
		t.monWG.Add(1)
		go func(rank int, p *proc) {
			defer t.monWG.Done()
			select {
			case <-p.dead:
				if !t.quiescent() {
					t.fail(fmt.Errorf("dist: worker process for rank %d exited mid-run: %v", rank, p.waitErr))
				}
			case <-t.worldDone:
			}
		}(rank, wc.proc)
	}
	if ctx.Done() != nil {
		t.stopCancel = context.AfterFunc(ctx, func() {
			t.fail(ctx.Err())
		})
	}
	t.begin = time.Now()
	ok = true
	return t, nil
}

// spawnInto launches workers until t holds n connections, accepting and
// authenticating their hellos on cp's listener. Every spawned process is
// recorded in t.procs immediately so teardown can reap it even when the
// handshake fails halfway.
func (r *runner) spawnInto(t *transport, cp *controlPlane, n int, deadline time.Time) error {
	need := n - len(t.conns)
	if need == 0 {
		return nil
	}
	cp.acceptMu.Lock()
	defer cp.acceptMu.Unlock()
	env := append(os.Environ(),
		envWorker+"="+cp.addrSpec,
		envToken+"="+cp.token)
	spawned := make(map[int]*proc, need)
	for i := 0; i < need; i++ {
		var cmd *exec.Cmd
		if len(r.workerCmd) > 0 {
			cmd = exec.Command(r.workerCmd[0], r.workerCmd[1:]...)
		} else {
			exe, err := os.Executable()
			if err != nil {
				return fmt.Errorf("locating own binary: %w", err)
			}
			cmd = exec.Command(exe)
		}
		cmd.Env = env
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("spawning worker: %w", err)
		}
		p := newProc(cmd)
		spawned[cmd.Process.Pid] = p
		t.procs = append(t.procs, p)
	}
	type deadliner interface{ SetDeadline(time.Time) error }
	for matched := 0; matched < need; {
		if d, ok := cp.ln.(deadliner); ok {
			if err := d.SetDeadline(deadline); err != nil {
				return err
			}
		}
		c, err := cp.ln.Accept()
		if err != nil {
			return fmt.Errorf("accepting workers (%d of %d connected; workers self-spawn by re-executing this binary — does its main call dist.MaybeWorker?): %w",
				len(t.conns), n, err)
		}
		wc := newWorkerConn(c)
		if err := wc.expectHello(deadline, cp.token); err != nil {
			// Not our worker (stray connection or stale world): drop it
			// and keep listening until the deadline.
			c.Close()
			continue
		}
		p := spawned[wc.pid]
		if p == nil {
			// Right token, wrong process: a straggler from an earlier
			// world of this pool's listener. Its own world already killed
			// (or will kill) it; closing the connection hurries it along.
			c.Close()
			continue
		}
		wc.proc = p
		t.conns = append(t.conns, wc)
		matched++
	}
	return nil
}

func init() { backend.Register(New()) }

// workerConn is the coordinator's control connection to one worker.
// After the world starts, writes go through the coalescing writer (any
// rank may send toward this connection's worker; writer serializes them)
// and reads belong to the connection's own rank's goroutine (inside
// Recv/RecvAny) until the finish barrier takes them over — the rank
// goroutines are gone by then. Close is safe concurrently (net.Conn
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
	// it in the runner's pool instead of killing it.
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

// expectHello consumes the worker's hello frame, checking the world
// secret when one is required.
func (wc *workerConn) expectHello(deadline time.Time, token string) error {
	op, body, err := wc.read(deadline, maxHandshakeFrame)
	if err != nil {
		return fmt.Errorf("awaiting hello: %w", err)
	}
	if op != opHello {
		return fmt.Errorf("expected hello frame, got op %d", op)
	}
	got, pid, err := ParseHello(body)
	if err != nil {
		return err
	}
	if token != "" && got != token {
		return fmt.Errorf("hello with wrong world secret")
	}
	wc.pid = pid
	return nil
}

// shard is one rank's message/byte tally, written only by that rank's
// goroutine and summed in Finish (after every process returned, so the
// world's WaitGroup provides the happens-before edge), mirroring the
// in-process mailbox's sharded meters.
type shard struct {
	msgs  int64
	bytes int64
	_     [112]byte
}

// transport is the coordinator side of one dist run.
type transport struct {
	ctx   context.Context
	n     int
	begin time.Time
	r     *runner

	conns []*workerConn
	// procs holds every worker process this world owns (pool-acquired
	// and freshly spawned); teardown kills whichever were not returned
	// to the pool.
	procs    []*proc
	counters []shard
	// sendBufs is per-source-rank scratch (rank-goroutine only) for
	// assembling send bodies without per-send allocation.
	sendBufs [][]byte
	// recvBufs is per-destination-rank scratch (rank-goroutine only) for
	// reading control frames without per-delivery allocation; popMsg's
	// fast path hands the payload to the decoder straight out of it.
	recvBufs [][]byte
	// inboxes bank eagerly pushed deliveries per destination rank;
	// Recv/RecvAny pop them locally.
	inboxes []*inQueue
	// ops counts each rank's transport operations (rank-goroutine only):
	// the epoch coordinate for fault-injection rules.
	ops []int
	inj *faultinject.Injector
	// rec is the run's flight recorder; nil (free) when tracing is off.
	rec *obs.Recorder

	mu        sync.Mutex
	err       error
	finishing bool

	// worldDone releases the per-process monitors at teardown.
	worldDone chan struct{}
	doneOnce  sync.Once
	monWG     sync.WaitGroup

	stopCancel func() bool
}

// fail records the run's first fatal error and closes every control
// connection, unwinding all blocked operations — a rank parked in a
// connection read waiting for a dead worker's delivery gets a read error
// and raises. (Closing the inboxes is defensive: the owning ranks only
// try-pop them, but any future blocking consumer unwinds too.) After
// Finish has begun it is a no-op (workers exiting at world end are not
// failures).
func (t *transport) fail(err error) {
	t.mu.Lock()
	if t.finishing || t.err != nil {
		t.mu.Unlock()
		return
	}
	t.err = err
	t.mu.Unlock()
	for _, wc := range t.conns {
		wc.c.Close()
	}
	for _, q := range t.inboxes {
		q.close()
	}
}

// quiescent reports whether the run already failed or is finishing — the
// states in which a worker exit is expected rather than fatal.
func (t *transport) quiescent() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.finishing || t.err != nil
}

func (t *transport) runErr() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// raise converts an I/O failure on a control connection into the
// cancellation sentinel, preferring the run's root cause (recorded fail,
// then context cancellation) over the local symptom.
func (t *transport) raise(rank int, ioErr error) {
	if err := t.runErr(); err != nil {
		panic(backend.Canceled(err))
	}
	if err := t.ctx.Err(); err != nil {
		panic(backend.Canceled(err))
	}
	err := fmt.Errorf("dist: rank %d worker connection: %w", rank, ioErr)
	t.fail(err)
	panic(backend.Canceled(err))
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

// inject consults the fault injector before rank's control I/O at the
// given hook point. Drop severs the rank's control connection so the
// world fails through the ordinary lost-worker path (the rank's worker
// exits when its connection closes, which the process monitor reports,
// and the rank's own next read errors immediately); Delay sleeps here.
func (t *transport) inject(point string, rank int) {
	if t.inj == nil {
		return
	}
	epoch := t.ops[rank]
	t.ops[rank]++
	act, d := t.inj.Eval(point, rank, epoch)
	if act != faultinject.None && t.rec != nil {
		t.rec.Emit(rank, obs.Event{T: t.rec.Now(), Peer: -1, Tag: int32(act), Kind: obs.KindFault})
	}
	switch act {
	case faultinject.Drop:
		t.conns[rank].c.Close()
	case faultinject.Delay:
		time.Sleep(d)
	}
}

// Send appends the message to the destination rank's connection, whose
// worker pushes the body back up as the delivery. The frame only reaches
// the wire at the sending rank's next flush point (its next receive, its
// body returning, or the writer's size threshold), which is the
// write-coalescing boundary: a burst of sends goes out as one opBatch
// frame.
func (t *transport) Send(src, dst, tag int, data any, bytes int) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	t.inject("dist.send", src)
	if src == dst {
		// Self-send: codec-encode and bank in the local inbox directly,
		// the cross-process analogue of the in-process mailbox's local
		// delivery. Unmetered, like every self-send.
		body, err := spmd.AppendPayload(nil, data)
		if err != nil {
			panic(fmt.Sprintf("dist: process %d: %v", src, err))
		}
		t.inboxes[src].push(inMsg{src: src, tag: tag, metered: bytes, payload: body})
		if t.rec != nil {
			t.rec.Emit(src, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: obs.KindSend})
		}
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
	if werr != nil {
		t.raise(src, werr)
	}
	sh := &t.counters[src]
	sh.msgs++
	sh.bytes += int64(bytes)
	if t.rec != nil {
		t.rec.Emit(src, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: obs.KindSend})
	}
}

// flushConns puts every connection's buffered frames on the wire — the
// coalescing boundary, hit whenever a rank is about to block (and when
// its body returns). Flushing all connections rather than just the
// rank's own is what lets Send stay fire-and-forget with no flusher
// goroutine: whichever rank blocks first drives everyone's pending bytes
// out, and an idle writer's Flush is a mutex acquisition, not a syscall.
func (t *transport) flushConns(rank int) {
	if t.rec == nil {
		for _, wc := range t.conns {
			if err := wc.w.Flush(); err != nil {
				t.raise(rank, err)
			}
		}
		return
	}
	start := t.rec.Now()
	frames, batched := 0, 0
	for _, wc := range t.conns {
		n, err := wc.w.FlushN()
		if err != nil {
			t.raise(rank, err)
		}
		frames += n
		if n > 1 {
			batched++
		}
	}
	if frames > 0 {
		// Bytes carries the frame count for flush events, and the number
		// of connections whose frames were coalesced for batch events.
		t.rec.Emit(rank, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(frames), Peer: -1, Kind: obs.KindFlush})
		if batched > 0 {
			t.rec.Emit(rank, obs.Event{T: start, Bytes: int64(batched), Peer: -1, Kind: obs.KindBatch})
		}
	}
}

// RankReturned implements backend.RankObserver: the rank's body is done,
// so its buffered sends must reach the wire now — it will never hit
// another flush point, and peers may be blocked on those messages.
// Errors fail the world (no panic: this runs outside the rank body's
// recover) unless it is already quiescent.
func (t *transport) RankReturned(rank int) {
	frames := 0
	for _, wc := range t.conns {
		n, err := wc.w.FlushN()
		if err != nil {
			if !t.quiescent() {
				t.fail(fmt.Errorf("dist: rank %d final flush: %w", rank, err))
			}
			return
		}
		frames += n
	}
	if frames > 0 && t.rec != nil {
		t.rec.Emit(rank, obs.Event{T: t.rec.Now(), Bytes: int64(frames), Peer: -1, Kind: obs.KindFlush})
	}
}

// popMsg is the receive engine, run entirely in the receiving rank's
// goroutine: flush every buffered send (progress other ranks may depend
// on), then satisfy the targeted (src >= 0) or any-source receive from
// the inbox, reading the rank's control connection for eagerly pushed
// deliveries until the wanted one arrives and banking every other
// delivery for later receives. Blocking happens only in the connection
// read, so a delivery wakes the waiting rank straight from the socket —
// no relay goroutine — and a failed world unwinds it by closing the
// connection.
//
// The common case — the wanted message is the next delivery off the wire
// — never touches the inbox: frames land in the rank's reused read
// scratch and the first match is returned directly, so the returned
// payload is only valid until the rank's next transport operation (the
// callers decode immediately). Only bypassed deliveries are copied out
// of the scratch and banked. A first-match direct consume is safe on
// both FIFO orders: with an empty per-source queue the first frame from
// src IS the oldest from src, and with an empty inbox the first frame of
// the batch IS the oldest cross-source arrival.
func (t *transport) popMsg(dst, src int) inMsg {
	t.inject("dist.recv", dst)
	t.flushConns(dst)
	inbox := t.inboxes[dst]
	wc := t.conns[dst]
	for {
		var m inMsg
		var ok bool
		if src >= 0 {
			m, ok = inbox.tryPop(src)
		} else {
			m, ok = inbox.tryPopAny()
		}
		if ok {
			return m
		}
		op, body, err := readFrameInto(wc.br, &t.recvBufs[dst])
		if err != nil {
			t.raise(dst, err)
		}
		err = forEachFrame(op, body, func(op byte, b []byte) error {
			if op != opDeliver {
				return fmt.Errorf("unexpected control op %d", op)
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
			// Not the wanted message (or one already matched): bank a copy
			// — the scratch underneath payload is reused on the next read.
			inbox.push(inMsg{src: from, tag: tag, metered: metered,
				payload: append([]byte(nil), payload...)})
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
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	m := t.popMsg(dst, src)
	if m.tag != tag {
		panic(fmt.Sprintf("dist: process %d expected tag %d from %d, got %d", dst, tag, src, m.tag))
	}
	data, _, err := spmd.DecodePayload(m.payload)
	if err != nil {
		t.raise(dst, fmt.Errorf("decoding message from %d: %w", src, err))
	}
	if t.rec != nil {
		t.rec.Emit(dst, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(m.metered), Peer: int32(m.src), Tag: int32(tag), Kind: obs.KindRecv})
	}
	return data
}

func (t *transport) RecvAny(dst, tag int) (int, any) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	m := t.popMsg(dst, -1)
	if m.tag != tag {
		panic(fmt.Sprintf("dist: process %d expected tag %d from any source, got %d from %d",
			dst, tag, m.tag, m.src))
	}
	data, _, err := spmd.DecodePayload(m.payload)
	if err != nil {
		t.raise(dst, fmt.Errorf("decoding message from %d: %w", m.src, err))
	}
	if t.rec != nil {
		t.rec.Emit(dst, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(m.metered), Peer: int32(m.src), Tag: int32(tag), Kind: obs.KindRecvAny})
	}
	return m.src, data
}

// Finish runs the world-finish barrier (finish/bye with every live
// worker), tears the substrate down — parking cleanly finished workers
// in the runner's pool when one is configured — and assembles the run
// summary.
func (t *transport) Finish() backend.Result {
	elapsed := time.Since(t.begin).Seconds()
	t.mu.Lock()
	t.finishing = true
	failedErr := t.err
	t.mu.Unlock()
	if t.stopCancel != nil {
		t.stopCancel()
		t.stopCancel = nil
	}
	if failedErr == nil && t.ctx.Err() == nil {
		deadline := time.Now().Add(10 * time.Second)
		for _, wc := range t.conns {
			// Through the writer so the finish frame orders after any
			// still-buffered sends.
			wc.w.Write(opFinish, nil) //nolint:errcheck // teardown is best-effort
			wc.w.Flush()              //nolint:errcheck
		}
		// The rank goroutines are gone (Run joined them), so the barrier
		// owns the reads now: drain each connection to its bye, skipping
		// stale deliveries nobody will receive. A worker's bye proves it
		// is between worlds — exactly the state the pool parks.
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
	res := backend.Result{Makespan: elapsed, Clocks: make([]float64, t.n)}
	for i := range res.Clocks {
		res.Clocks[i] = elapsed
	}
	for i := range t.counters {
		res.Msgs += t.counters[i].msgs
		res.Bytes += t.counters[i].bytes
	}
	return res
}

// teardown releases the substrate: monitors unparked, inboxes closed,
// and every worker either returned to the runner's pool (spawned, bye
// received, pool configured) or closed and killed. Workers exit on their
// own once their control connection closes; the kill is the backstop
// that bounds the reap.
func (t *transport) teardown() {
	if t.stopCancel != nil {
		t.stopCancel()
		t.stopCancel = nil
	}
	t.mu.Lock()
	t.finishing = true
	t.mu.Unlock()
	if t.worldDone != nil {
		t.doneOnce.Do(func() { close(t.worldDone) })
	}
	pooled := make(map[*proc]bool)
	for _, wc := range t.conns {
		if t.r != nil && t.r.pool != nil && wc.poolable && wc.proc != nil {
			// The worker's next hello is already on its way up this
			// connection; the next world's handshake picks it up.
			wc.c.SetReadDeadline(time.Time{}) //nolint:errcheck // park with a clean slate
			t.r.pool.put(&pooledWorker{p: wc.proc, c: wc.c, br: wc.br})
			pooled[wc.proc] = true
			continue
		}
		wc.c.Close()
	}
	for _, q := range t.inboxes {
		q.close()
	}
	for _, p := range t.procs {
		if !pooled[p] {
			p.kill()
		}
	}
	t.monWG.Wait()
	t.procs = nil
}
