package elastic

import (
	"bufio"
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// pointRankOp is the fault-injection hook point evaluated after every
// completed rank operation.
const pointRankOp = "elastic.rank.op"

// handshakeTimeout bounds how long world start waits for the starting
// pool to attach.
const handshakeTimeout = 30 * time.Second

// msgRec is one message as the coordinator's shadow state records it:
// the sender, tag, metered byte count, and the encoded payload bytes.
// The same record serves three roles — undelivered shadow-queue entry,
// worker-inbox mirror, and delivery-log entry — so replay redelivers
// exactly what was delivered (decoded fresh, never aliasing a value the
// rank body may have mutated).
type msgRec struct {
	src, tag, metered int
	payload           []byte
}

// rankState is the coordinator's authoritative record of one rank: its
// current lease, the shadow queue of undelivered inbound messages (in
// arrival order), and the checkpoint — the delivery log plus the count
// of live sends performed — from which a re-execution replays.
type rankState struct {
	host     *wlink
	running  bool
	done     bool
	restarts int
	// queue holds undelivered inbound messages; the hosting worker's
	// inbox mirrors it, and it is flushed to the new host on re-lease.
	queue []msgRec
	// log holds delivered messages in program order; cursor is the
	// replay position (== len(log) once the attempt has gone live).
	log    []msgRec
	cursor int
	// sent counts live sends performed across all attempts; sendIdx
	// counts sends seen by the current attempt, which are suppressed
	// (not re-sent, not re-metered) while sendIdx < sent.
	sent, sendIdx int
	// epoch counts this attempt's completed operations — the
	// fault-injection coordinate.
	epoch int
}

// wlink is the coordinator's connection to one worker endpoint. All I/O
// on it happens under the transport mutex: the protocol has at most one
// outstanding request per connection, so request/response pairs complete
// atomically and need no correlation.
type wlink struct {
	id           int
	pid          int
	c            net.Conn
	br           *bufio.Reader
	buf          []byte
	dead         bool
	missed       int
	joinedMidRun bool
	ranks        map[int]struct{}
}

// counter is one rank's message/byte tally (updated under the transport
// mutex, summed in Finish).
type counter struct {
	msgs, bytes int64
}

// rescheduleError is the control-flow sentinel an attempt's transport
// operations raise (wrapped in backend.Canceled) when the rank's host
// worker died: the rank body unwinds, Drive catches the error, and the
// rank is re-executed from its checkpoint on another worker.
type rescheduleError struct {
	rank int
}

func (e *rescheduleError) Error() string {
	return fmt.Sprintf("elastic: rank %d lost its host worker; rescheduling", e.rank)
}

// transport is the coordinator side of one elastic run.
type transport struct {
	ctx   context.Context
	r     *runner
	n     int
	begin time.Time
	ln    net.Listener
	token string

	mu        sync.Mutex
	cond      *sync.Cond
	workers   map[int]*wlink
	nextWID   int
	attached  int
	started   bool
	ranks     []rankState
	counters  []counter
	doneN     int
	err       error
	finishing bool
	starved   bool
	stats     Stats

	deadlineTimer *time.Timer
	stopCancel    func() bool
	procs         []*exec.Cmd
	procWG        sync.WaitGroup
	localWG       sync.WaitGroup

	// rec is the run's flight recorder; nil (free) when tracing is off.
	// Rank events are emitted from attempt goroutines — attempts of one
	// rank never overlap (the running flag serializes them under mu), so
	// the per-rank single-writer ring contract holds. Coordinator events
	// (lease, heartbeat, declared-dead) go to the system ring.
	rec *obs.Recorder
}

// start brings up the coordinator: control listener, worker pool (OS
// processes or in-process goroutines), and the attach barrier for the
// starting pool. Mid-run joins keep arriving through the same listener
// for the life of the run.
func (r *runner) start(ctx context.Context, n int) (*transport, error) {
	t := &transport{
		ctx:      ctx,
		r:        r,
		n:        n,
		workers:  map[int]*wlink{},
		ranks:    make([]rankState, n),
		counters: make([]counter, n),
		rec:      obs.RunRecorder(ctx, n, "elastic"),
	}
	t.cond = sync.NewCond(&t.mu)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("control listener: %w", err)
	}
	t.ln = ln
	var secret [16]byte
	if _, err := rand.Read(secret[:]); err != nil {
		ln.Close()
		return nil, fmt.Errorf("world token: %w", err)
	}
	t.token = hex.EncodeToString(secret[:])
	go t.acceptLoop(ln)
	if r.onAttach != nil {
		r.onAttach(ln.Addr().String(), t.token)
	}

	ok := false
	defer func() {
		if !ok {
			t.teardown()
		}
	}()

	pool := r.poolSize(n)
	if r.external {
		// The caller brings the starting pool (WithAttachHook or
		// archworker -elastic -join); nothing to spawn, the attach
		// barrier below still holds the world until they arrive.
	} else if r.local {
		for i := 0; i < pool; i++ {
			t.localWG.Add(1)
			go func() {
				defer t.localWG.Done()
				if r.reconnect {
					Join(ctx, ln.Addr().String(), t.token) //nolint:errcheck // worker outcome is the coordinator's to judge
				} else {
					joinOnce(ln.Addr().String(), t.token)
				}
			}()
		}
	} else {
		env := append(os.Environ(),
			envWorker+"="+ln.Addr().String(),
			envToken+"="+t.token)
		for i := 0; i < pool; i++ {
			// Workers re-execute this binary, whose main calls MaybeWorker.
			exe, err := os.Executable()
			if err != nil {
				return nil, fmt.Errorf("locating own binary: %w", err)
			}
			cmd := exec.CommandContext(ctx, exe)
			cmd.Env = env
			cmd.Stderr = os.Stderr
			if err := cmd.Start(); err != nil {
				return nil, fmt.Errorf("spawning worker %d: %w", i, err)
			}
			t.procs = append(t.procs, cmd)
		}
		// Monitors: a worker process dying is not world-fatal here — it
		// is the recovery trigger. Declare the matching endpoint dead so
		// its leases reschedule even before heartbeats notice.
		for _, cmd := range t.procs {
			t.procWG.Add(1)
			go func(cmd *exec.Cmd) {
				defer t.procWG.Done()
				pid := cmd.Process.Pid
				cmd.Wait() //nolint:errcheck // the exit itself is the event
				t.mu.Lock()
				defer t.mu.Unlock()
				if t.finishing || t.err != nil {
					return
				}
				for _, w := range t.workers {
					if w.pid == pid && !w.dead {
						t.declareDeadLocked(w, fmt.Errorf("worker process %d exited mid-run", pid))
					}
				}
			}(cmd)
		}
	}

	// Attach barrier for the starting pool; joins after this count as
	// mid-run joins.
	deadline := time.Now().Add(handshakeTimeout)
	wake := time.AfterFunc(handshakeTimeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer wake.Stop()
	t.mu.Lock()
	for t.attached < pool && t.err == nil && time.Now().Before(deadline) {
		t.cond.Wait()
	}
	got := t.attached
	t.started = true
	t.mu.Unlock()
	if got < pool {
		return nil, fmt.Errorf("%d of %d workers attached within %v (self-spawned workers re-execute this binary — does its main call elastic.MaybeWorker?)",
			got, pool, handshakeTimeout)
	}
	if ctx.Done() != nil {
		t.stopCancel = context.AfterFunc(ctx, func() { t.fail(ctx.Err()) })
	}
	t.begin = time.Now()
	ok = true
	return t, nil
}

// joinOnce is a non-reconnecting local worker: one dial, one world.
func joinOnce(addr, token string) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return
	}
	serveConn(conn, token) //nolint:errcheck // coordinator-side detection owns the outcome
}

// acceptLoop admits worker endpoints for the life of the run: the
// starting pool, mid-run joiners, and reconnecting workers all arrive
// here. It ends when the listener closes (teardown).
func (t *transport) acceptLoop(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go t.admit(c)
	}
}

// admit handshakes one dialing worker and registers it as leasable.
func (t *transport) admit(c net.Conn) {
	c.SetReadDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // enforced by the read
	br := bufio.NewReader(c)
	op, body, err := dist.ReadHandshakeFrame(br) // unauthenticated dialer: bounded
	if err != nil || op != opHello {
		c.Close()
		return
	}
	token, pid, err := dist.ParseHello(body)
	if err != nil || token != t.token {
		// Wrong world (or not a worker at all): drop before it can host
		// anything.
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{}) //nolint:errcheck // cleared for the op stream
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finishing || t.err != nil {
		c.Close()
		return
	}
	w := &wlink{id: t.nextWID, pid: pid, c: c, br: br, ranks: map[int]struct{}{}, joinedMidRun: t.started}
	t.nextWID++
	if t.writeLocked(w, opWelcome, welcomeBody(w.id, t.r.hbInterval)) != nil {
		c.Close()
		return
	}
	t.workers[w.id] = w
	t.attached++
	t.stats.Workers++
	t.cond.Broadcast()
	go t.heartbeat(w)
}

// heartbeat pings one worker on the configured cadence; hbMiss
// consecutive failures (I/O errors or a pong that never arrives within
// an interval) declare it dead. Detection by heartbeat matters for the
// silent-failure mode TCP cannot report: a worker that is alive as a
// connection but wedged as a process.
func (t *transport) heartbeat(w *wlink) {
	tick := time.NewTicker(t.r.hbInterval)
	defer tick.Stop()
	for range tick.C {
		t.mu.Lock()
		if w.dead || t.finishing || t.err != nil {
			t.mu.Unlock()
			return
		}
		err := t.writeLocked(w, opPing, nil)
		if err == nil {
			var op byte
			op, _, err = t.readLocked(w, time.Now().Add(t.r.hbInterval))
			if err == nil && op != opPong {
				err = fmt.Errorf("expected pong, got op %d", op)
			}
		}
		if err != nil {
			w.missed++
			if w.missed >= t.r.hbMiss {
				t.declareDeadLocked(w, fmt.Errorf("missed %d heartbeats: %w", w.missed, err))
				t.mu.Unlock()
				return
			}
		} else {
			w.missed = 0
			if t.rec != nil {
				t.rec.EmitSys(obs.Event{T: t.rec.Now(), Rank: -1, Peer: int32(w.id), Kind: obs.KindHeartbeat})
			}
		}
		t.mu.Unlock()
	}
}

func (t *transport) writeLocked(w *wlink, op byte, body []byte) error {
	w.buf = dist.AppendFrame(w.buf[:0], op, body)
	_, err := w.c.Write(w.buf)
	return err
}

func (t *transport) readLocked(w *wlink, deadline time.Time) (byte, []byte, error) {
	if err := w.c.SetReadDeadline(deadline); err != nil {
		return 0, nil, err
	}
	return dist.ReadFrame(w.br)
}

// declareDeadLocked removes a worker from the leasable pool: its
// connection closes, its hosted ranks lose their lease (their running
// attempts unwind with the reschedule sentinel at their next operation),
// and the scheduler wakes to re-lease them.
func (t *transport) declareDeadLocked(w *wlink, cause error) {
	if w.dead {
		return
	}
	w.dead = true
	delete(t.workers, w.id)
	w.c.Close()
	t.stats.DeclaredDead++
	if t.rec != nil {
		t.rec.EmitSys(obs.Event{T: t.rec.Now(), Rank: -1, Peer: int32(w.id), Kind: obs.KindDeclaredDead})
	}
	_ = cause
	for rank := range w.ranks {
		if rs := &t.ranks[rank]; rs.host == w {
			rs.host = nil
		}
	}
	t.cond.Broadcast()
}

// killLocked terminates a worker outright (fault injection): the spawned
// process is killed when there is one, and the endpoint is declared dead
// immediately so the kill point is deterministic.
func (t *transport) killLocked(w *wlink) {
	for _, cmd := range t.procs {
		if cmd.Process != nil && cmd.Process.Pid == w.pid {
			cmd.Process.Kill() //nolint:errcheck // already-exited is fine
		}
	}
	t.declareDeadLocked(w, errors.New("killed by fault injection"))
}

// fail records the run's first fatal error, severs every worker, and
// wakes everything blocked on world state.
func (t *transport) fail(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(err)
}

func (t *transport) failLocked(err error) {
	if t.finishing || t.err != nil {
		return
	}
	t.err = err
	for _, w := range t.workers {
		w.c.Close()
	}
	t.cond.Broadcast()
}

// checkLiveLocked gates every data-plane operation: a failed world or
// cancelled context unwinds with the cancellation sentinel, and a lost
// lease unwinds with the reschedule sentinel.
func (t *transport) checkLiveLocked(rank int) *rankState {
	if t.err != nil {
		panic(backend.Canceled(t.err))
	}
	if err := t.ctx.Err(); err != nil {
		t.failLocked(err)
		panic(backend.Canceled(err))
	}
	rs := &t.ranks[rank]
	if rs.host == nil || rs.host.dead {
		panic(backend.Canceled(&rescheduleError{rank: rank}))
	}
	return rs
}

// opDoneLocked advances the rank's epoch and gives the fault injector
// its deterministic shot at the completed operation's program point.
func (t *transport) opDoneLocked(rank int, rs *rankState) {
	e := rs.epoch
	rs.epoch++
	if t.r.inj == nil {
		return
	}
	act, d := t.r.inj.Eval(pointRankOp, rank, e)
	if act != faultinject.None && t.rec != nil {
		t.rec.Emit(rank, obs.Event{T: t.rec.Now(), Peer: -1, Tag: int32(act), Kind: obs.KindFault})
	}
	switch act {
	case faultinject.Kill:
		if w := rs.host; w != nil && !w.dead {
			t.killLocked(w)
		}
	case faultinject.Drop:
		// Sever the link without declaring death: the next I/O error or
		// missed heartbeat must detect it — the detection-path exercise.
		if w := rs.host; w != nil && !w.dead {
			w.c.Close()
		}
	case faultinject.Delay:
		time.Sleep(d)
	}
}

// enqLocked mirrors one shadow-queue message into the hosting worker's
// inbox. An I/O failure declares that worker dead (the message is safe
// in the shadow queue and will be flushed to the next host); the sender
// is unaffected unless the dead worker was its own host.
func (t *transport) enqLocked(w *wlink, rank int, m msgRec) error {
	err := t.writeLocked(w, opEnq, enqBody(rank, m.src, m.tag, m.metered, m.payload))
	if err != nil {
		t.declareDeadLocked(w, fmt.Errorf("enq to worker %d: %w", w.id, err))
	}
	return err
}

// popTimeout bounds a pop's response read: a worker that accepted the
// request but never answers is dead, not slow.
func (t *transport) popTimeout() time.Duration {
	return t.r.hbInterval * time.Duration(t.r.hbMiss+1)
}

// popLocked retrieves the head of the (rank, src) inbox from rank's host
// — guaranteed non-empty by the shadow queue. Stale pongs from a
// previously timed-out heartbeat are skipped.
func (t *transport) popLocked(w *wlink, rank, src int) (msgRec, error) {
	if err := t.writeLocked(w, opPop, popBody(rank, src)); err != nil {
		return msgRec{}, err
	}
	deadline := time.Now().Add(t.popTimeout())
	for {
		op, body, err := t.readLocked(w, deadline)
		if err != nil {
			return msgRec{}, err
		}
		if op == opPong {
			continue
		}
		if op != opMsg {
			return msgRec{}, fmt.Errorf("expected msg frame, got op %d", op)
		}
		msrc, tag, metered, payload, err := parseMsg(body)
		if err != nil {
			return msgRec{}, err
		}
		return msgRec{src: msrc, tag: tag, metered: metered, payload: payload}, nil
	}
}

// Charge discards modeled computation like the real and dist backends.
func (t *transport) Charge(rank int, sec float64) {}

// SetResident is a no-op: the host pages for real.
func (t *transport) SetResident(rank int, bytes float64) {}

func (t *transport) Clock(rank int) float64 { return time.Since(t.begin).Seconds() }

func (t *transport) Recorder() *obs.Recorder { return t.rec }

// Idle cannot advance a wall clock.
func (t *transport) Idle(rank int, at float64) {}

func (t *transport) Send(src, dst, tag int, data any, bytes int) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.checkLiveLocked(src)
	if rs.sendIdx < rs.sent {
		// Replay: this send already happened in a previous attempt — its
		// message is in the destination's shadow state (or delivery log)
		// and its meter charge is on the books. Suppress it.
		rs.sendIdx++
		if t.rec != nil {
			t.rec.Emit(src, obs.Event{T: start, Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: obs.KindResendSuppressed})
		}
		t.opDoneLocked(src, rs)
		return
	}
	payload, err := spmd.AppendPayload(nil, data)
	if err != nil {
		// A payload outside the wire codec is a programming error of the
		// same class as a tag mismatch.
		panic(fmt.Sprintf("elastic: process %d: %v", src, err))
	}
	m := msgRec{src: src, tag: tag, metered: bytes, payload: payload}
	ds := &t.ranks[dst]
	ds.queue = append(ds.queue, m)
	if w := ds.host; w != nil && !w.dead {
		t.enqLocked(w, dst, m) //nolint:errcheck // shadow queue keeps the message; dst reschedules
	}
	rs.sent++
	rs.sendIdx++
	if src != dst {
		t.counters[src].msgs++
		t.counters[src].bytes += int64(bytes)
	}
	if t.rec != nil {
		t.rec.Emit(src, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: obs.KindSend})
	}
	t.cond.Broadcast()
	t.opDoneLocked(src, rs)
}

func (t *transport) Recv(src, dst, tag int) any {
	from, data := t.recv(dst, src, tag)
	_ = from
	return data
}

func (t *transport) RecvAny(dst, tag int) (int, any) {
	return t.recv(dst, -1, tag)
}

// recv delivers the next message for dst (from src, or from anyone in
// arrival order when src < 0): replayed from the delivery log while the
// attempt is behind its checkpoint, popped from the hosting worker's
// inbox once live.
func (t *transport) recv(dst, src, tag int) (int, any) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.checkLiveLocked(dst)

	if rs.cursor < len(rs.log) {
		d := rs.log[rs.cursor]
		if src >= 0 && d.src != src {
			err := fmt.Errorf("elastic: rank %d replay diverged: log has a message from %d, program asked for %d (rank bodies must be deterministic)", dst, d.src, src)
			t.failLocked(err)
			panic(backend.Canceled(err))
		}
		if d.tag != tag {
			panic(fmt.Sprintf("elastic: process %d expected tag %d from %d, got %d", dst, tag, d.src, d.tag))
		}
		rs.cursor++
		v := t.decode(dst, d.src, d.payload)
		if t.rec != nil {
			t.rec.Emit(dst, obs.Event{T: start, Bytes: int64(d.metered), Peer: int32(d.src), Tag: int32(tag), Kind: obs.KindReplay})
		}
		t.opDoneLocked(dst, rs)
		return d.src, v
	}

	var idx int
	for {
		rs = t.checkLiveLocked(dst)
		idx = -1
		for i := range rs.queue {
			if src < 0 || rs.queue[i].src == src {
				idx = i
				break
			}
		}
		if idx >= 0 {
			break
		}
		t.cond.Wait()
	}
	m := rs.queue[idx]
	if m.tag != tag {
		if src < 0 {
			panic(fmt.Sprintf("elastic: process %d expected tag %d from any source, got %d from %d", dst, tag, m.tag, m.src))
		}
		panic(fmt.Sprintf("elastic: process %d expected tag %d from %d, got %d", dst, tag, src, m.tag))
	}
	w := rs.host
	popped, err := t.popLocked(w, dst, m.src)
	if err != nil {
		// The pop ran on dst's own host: its death is dst's reschedule.
		// The message was not logged and stays in the shadow queue, so
		// the re-execution redelivers it — no loss, no duplicate.
		t.declareDeadLocked(w, fmt.Errorf("pop from worker %d: %w", w.id, err))
		panic(backend.Canceled(&rescheduleError{rank: dst}))
	}
	if popped.src != m.src || popped.tag != m.tag || popped.metered != m.metered || !bytes.Equal(popped.payload, m.payload) {
		perr := fmt.Errorf("elastic: rank %d: worker %d delivered a message diverging from the shadow queue (src %d/%d tag %d/%d)",
			dst, w.id, popped.src, m.src, popped.tag, m.tag)
		t.failLocked(perr)
		panic(backend.Canceled(perr))
	}
	rs.queue = append(rs.queue[:idx], rs.queue[idx+1:]...)
	rs.log = append(rs.log, m)
	rs.cursor++
	v := t.decode(dst, m.src, popped.payload)
	if t.rec != nil {
		kind := obs.KindRecv
		if src < 0 {
			kind = obs.KindRecvAny
		}
		t.rec.Emit(dst, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(m.metered), Peer: int32(m.src), Tag: int32(tag), Kind: kind})
	}
	t.opDoneLocked(dst, rs)
	return m.src, v
}

// decode reconstructs a payload value from wire bytes — a fresh value
// every time, so a replayed delivery can never alias memory the rank
// body mutated in a previous attempt.
func (t *transport) decode(dst, src int, payload []byte) any {
	v, _, err := spmd.DecodePayload(payload)
	if err != nil {
		perr := fmt.Errorf("elastic: rank %d: decoding message from %d: %w", dst, src, err)
		t.failLocked(perr)
		panic(backend.Canceled(perr))
	}
	return v
}

// pickWorkerLocked chooses the live worker hosting the fewest ranks.
func (t *transport) pickWorkerLocked() *wlink {
	var best *wlink
	for _, w := range t.workers {
		if w.dead {
			continue
		}
		if best == nil || len(w.ranks) < len(best.ranks) ||
			(len(w.ranks) == len(best.ranks) && w.id < best.id) {
			best = w
		}
	}
	return best
}

// leaseLocked assigns rank to w and flushes the rank's shadow queue into
// w's inbox. It reports false when w died mid-flush (the scheduler picks
// another worker).
func (t *transport) leaseLocked(rank int, w *wlink) bool {
	rs := &t.ranks[rank]
	rs.host = w
	w.ranks[rank] = struct{}{}
	for _, m := range rs.queue {
		if t.enqLocked(w, rank, m) != nil {
			return false
		}
	}
	if rs.host != w || w.dead {
		return false
	}
	if w.joinedMidRun && rs.restarts > 0 {
		t.stats.JoinPickups++
	}
	if t.rec != nil {
		t.rec.EmitSys(obs.Event{T: t.rec.Now(), Rank: int32(rank), Peer: int32(w.id), Kind: obs.KindLease})
	}
	return true
}

// pendingLocked counts ranks that are neither done nor running — the
// task queue's depth.
func (t *transport) pendingLocked() int {
	p := 0
	for i := range t.ranks {
		if !t.ranks[i].done && !t.ranks[i].running {
			p++
		}
	}
	return p
}

// Drive is the task-queue scheduler: ranks are tasks, live workers are
// the pool, and each attempt leases a rank to a worker and executes the
// rank body (replaying its checkpoint first when it is a re-execution).
// It returns when every rank has completed exactly once from the
// program's point of view, or with the world's first fatal error.
func (t *transport) Drive(run func(rank int) error) error {
	var attempts sync.WaitGroup
	t.mu.Lock()
	for t.err == nil && t.doneN < t.n {
		launched := false
		for r := 0; r < t.n; r++ {
			rs := &t.ranks[r]
			if rs.done || rs.running {
				continue
			}
			w := t.pickWorkerLocked()
			if w == nil {
				break
			}
			// Reset the attempt view of the checkpoint before the body
			// starts: replay from the log head, suppress logged sends.
			rs.cursor, rs.sendIdx, rs.epoch = 0, 0, 0
			if !t.leaseLocked(r, w) {
				// The chosen worker died mid-flush: state changed, so
				// loop again rather than wait on a signal already sent.
				launched = true
				continue
			}
			rs.running = true
			launched = true
			attempts.Add(1)
			go func(rank int) {
				defer attempts.Done()
				err := run(rank)
				t.mu.Lock()
				defer t.mu.Unlock()
				rs := &t.ranks[rank]
				rs.running = false
				if rs.host != nil {
					delete(rs.host.ranks, rank)
					rs.host = nil
				}
				var re *rescheduleError
				switch {
				case err == nil:
					rs.done = true
					t.doneN++
				case errors.As(err, &re):
					rs.restarts++
					t.stats.Restarts++
					if rs.restarts > t.r.maxRestarts {
						t.failLocked(fmt.Errorf("elastic: rank %d exceeded its restart budget (%d restarts): %w",
							rank, t.r.maxRestarts, err))
					} else if t.deadlineTimer == nil {
						// The recovery deadline arms at the first restart
						// and bounds the whole recovery phase: a world
						// that cannot stop restarting fails cleanly.
						d := t.r.deadline
						t.deadlineTimer = time.AfterFunc(d, func() {
							t.fail(fmt.Errorf("elastic: recovery deadline (%v) exceeded", d))
						})
					}
				default:
					t.failLocked(err)
				}
				t.cond.Broadcast()
			}(r)
		}
		if t.err != nil || t.doneN >= t.n {
			break
		}
		if launched {
			continue
		}
		if t.pendingLocked() > 0 && len(t.workers) == 0 && t.r.onStarve != nil && !t.starved {
			// Queued rank tasks and zero live workers: a mid-run join is
			// the only way forward. Tell the hook (outside the lock — it
			// may synchronously dial and handshake a new worker).
			t.starved = true
			hook, addr, tok := t.r.onStarve, t.ln.Addr().String(), t.token
			t.mu.Unlock()
			hook(addr, tok)
			t.mu.Lock()
			continue
		}
		t.cond.Wait()
	}
	err := t.err
	t.mu.Unlock()
	// Every attempt unwinds on its own: blocked receives wake via the
	// broadcast in failLocked/declareDeadLocked and raise a sentinel at
	// checkLiveLocked.
	attempts.Wait()
	return err
}

// Finish runs the finish barrier with the surviving workers, tears the
// substrate down, reports stats, and assembles the run summary.
func (t *transport) Finish() backend.Result {
	elapsed := time.Since(t.begin).Seconds()
	t.mu.Lock()
	t.finishing = true
	if t.deadlineTimer != nil {
		t.deadlineTimer.Stop()
		t.deadlineTimer = nil
	}
	if t.err == nil && t.ctx.Err() == nil {
		deadline := time.Now().Add(10 * time.Second)
		for _, w := range t.workers {
			if w.dead {
				continue
			}
			if t.writeLocked(w, opFinish, nil) != nil {
				continue
			}
			for {
				op, _, err := t.readLocked(w, deadline)
				if err != nil || op == opBye {
					break
				}
				// Stale pongs drain here; anything else ends the read.
				if op != opPong {
					break
				}
			}
		}
	}
	stats := t.stats
	t.mu.Unlock()
	t.teardown()
	if t.r.observer != nil {
		t.r.observer(stats)
	}
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

// teardown closes the listener and every connection, kills and reaps
// spawned workers, and waits out local worker goroutines.
func (t *transport) teardown() {
	if t.stopCancel != nil {
		t.stopCancel()
		t.stopCancel = nil
	}
	t.mu.Lock()
	t.finishing = true
	if t.ln != nil {
		t.ln.Close()
	}
	for _, w := range t.workers {
		w.c.Close()
	}
	procs := t.procs
	t.procs = nil
	t.mu.Unlock()
	for _, cmd := range procs {
		cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	}
	t.procWG.Wait()
	t.localWG.Wait()
}
