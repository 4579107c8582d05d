// Package obs is the flight recorder: a low-overhead, per-rank event
// trace of everything the runtime does on behalf of a program — sends,
// receives (with blocked time), dist flushes/batches/delivers/heartbeats,
// recovery events (declared-dead, lease, replay, resend-suppressed),
// world start/barrier/finish, scheduler enqueue/execute, and injected
// faults.
//
// The design center is the disabled case: every hot-path instrumentation
// site guards on a nil *Recorder, so a run without tracing costs one
// predictable not-taken branch per send/recv (the bench gate in CI pins
// this at <=3% on the fabric micros). When enabled, events go into
// per-rank ring buffers written only by that rank's goroutine — the
// backend.Transport contract already serializes per-rank calls — so the
// hot path takes no locks. Rings drop oldest on overflow and report a
// dropped count. Coordinator-side events (heartbeats, leases, scheduler
// activity) go to a mutex-guarded system ring, off the rank hot path.
//
// Timestamps are int64 nanoseconds. Wall-clock backends stamp events
// with Recorder.Now (monotonic ns since the owning Collector's epoch, so
// all runs under one collector share a timeline); the sim backend stamps
// events with virtual time (virtual seconds x 1e9) so a simulated trace
// shows the modeled schedule, not the host's.
//
// Exporters: Chrome trace-event JSON (Collector.WriteChrome — one
// Perfetto process per run, one thread track per rank) and per-run
// Summary (busy/blocked/comm per rank, per-edge message matrix,
// critical-path estimate) attached to arch.Report. The same package also
// hosts the Prometheus text-exposition registry archserve serves at
// /metrics (see prom.go). obs imports only the standard library, so any
// layer of the runtime can emit events without import cycles.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Kind identifies the event type. The zero value is invalid so that an
// all-zero Event (an unwritten ring slot) is recognizable.
type Kind uint8

const (
	// KindSend records a point-to-point send: Rank=src, Peer=dst,
	// Tag, Bytes (metered), Dur = time spent inside Send.
	KindSend Kind = 1 + iota
	// KindRecv records a matched receive: Rank=dst, Peer=src, Tag,
	// Bytes, Dur = time blocked waiting for the message.
	KindRecv
	// KindRecvAny is KindRecv for a wildcard-source receive; Peer is
	// the source that actually matched.
	KindRecvAny
	// KindFlush records a dist coordinator write-coalescing flush at a
	// block point: Bytes = frames put on the wire, Dur = flush time.
	KindFlush
	// KindBatch records that a flush coalesced multiple frames into
	// opBatch containers; Bytes = number of connections batched.
	KindBatch
	// KindDeliver records a dist deliver frame arriving in a rank's
	// coordinator inbox: Rank=dst, Peer=src, Tag, Bytes.
	KindDeliver
	// KindLease records a replacement worker taking over a rank under
	// a recovery budget: Rank = the rank, Peer = worker id. System ring.
	KindLease
	// KindHeartbeat records a remote worker's pong reaching its rank's
	// reader (rank ring).
	KindHeartbeat
	// KindDeclaredDead records a rank's remote worker declared lost:
	// Rank = the rank. System ring.
	KindDeclaredDead
	// KindReplay records a logged receive replayed into a re-executed
	// rank: Rank=dst, Peer=src, Tag, Bytes.
	KindReplay
	// KindResendSuppressed records an already-performed send suppressed
	// during a rank's re-execution: Rank=src, Peer=dst, Tag, Bytes.
	KindResendSuppressed
	// KindStart marks the world starting (system ring, T=0 on sim).
	KindStart
	// KindBarrier records a completed barrier on one rank; Dur is the
	// time from entering to leaving the barrier.
	KindBarrier
	// KindFinish marks a rank body returning (rank ring) or the world
	// finishing (system ring, Rank=-1).
	KindFinish
	// KindEnqueue records a sched cell entering the worker pool queue.
	KindEnqueue
	// KindExecute records a sched cell starting execution; Dur is the
	// time it waited in the queue.
	KindExecute
	// KindFault records a faultinject rule firing; Tag carries the
	// faultinject.Action code.
	KindFault
)

var kindNames = [...]string{
	KindSend:             "send",
	KindRecv:             "recv",
	KindRecvAny:          "recvany",
	KindFlush:            "flush",
	KindBatch:            "batch",
	KindDeliver:          "deliver",
	KindLease:            "lease",
	KindHeartbeat:        "heartbeat",
	KindDeclaredDead:     "declared-dead",
	KindReplay:           "replay",
	KindResendSuppressed: "resend-suppressed",
	KindStart:            "start",
	KindBarrier:          "barrier",
	KindFinish:           "finish",
	KindEnqueue:          "enqueue",
	KindExecute:          "execute",
	KindFault:            "fault",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded runtime event. The struct is fixed-size and
// pointer-free so a ring slot write is a straight memory copy.
type Event struct {
	T     int64 // start timestamp, ns (wall since collector epoch, or virtual)
	Dur   int64 // duration, ns; 0 for instant events
	Bytes int64 // metered payload bytes, or kind-specific count
	Rank  int32 // subject rank; -1 for system-wide events
	Peer  int32 // other endpoint (dst for sends, src for recvs, worker id); -1 if none
	Tag   int32 // message tag, or kind-specific code
	Kind  Kind
}

// ringCapDefault bounds per-rank memory at ~320 KB/rank fully grown;
// rings start small and double on demand, so cheap runs stay cheap.
const (
	ringCapDefault = 8192
	ringStart      = 256
)

// ring is a single-writer drop-oldest event buffer. Only the owning
// rank's goroutine writes; readers run strictly after the run finishes
// (the world's WaitGroup/Drive return is the happens-before edge). The
// trailing pad keeps adjacent ranks' write cursors off each other's
// cache lines.
type ring struct {
	buf  []Event
	head uint64 // total events ever written
	_    [88]byte
}

func (g *ring) write(max int, e Event) {
	n := len(g.buf)
	if n < max && int(g.head) >= n {
		grown := n * 2
		if grown < ringStart {
			grown = ringStart
		}
		if grown > max {
			grown = max
		}
		nb := make([]Event, grown)
		copy(nb, g.buf)
		g.buf = nb
		n = grown
	}
	g.buf[g.head%uint64(n)] = e
	g.head++
}

// events returns the ring contents in write order plus the number of
// dropped (overwritten) events. Post-run only.
func (g *ring) events() ([]Event, int64) {
	n := uint64(len(g.buf))
	if n == 0 {
		return nil, 0
	}
	if g.head <= n {
		out := make([]Event, g.head)
		copy(out, g.buf[:g.head])
		return out, 0
	}
	out := make([]Event, n)
	start := g.head % n
	copy(out, g.buf[start:])
	copy(out[n-start:], g.buf[:start])
	return out, int64(g.head - n)
}

// Recorder records the events of one run (one transport lifetime). A nil
// *Recorder is valid and inert: every method is a no-op, which is what
// makes the disabled trace a single branch at each instrumentation site.
type Recorder struct {
	label   string
	n       int
	epoch   time.Time
	ringCap int
	rings   []ring
	// parks[rank] is set once by the transport at Finish (SetParks).
	parks []int64

	sysMu sync.Mutex
	sys   ring
}

// NewRecorder returns a standalone recorder for n ranks (used directly
// by tests; runs normally get recorders from a Collector so they share
// its epoch).
func NewRecorder(n int, label string) *Recorder {
	return &Recorder{label: label, n: n, epoch: time.Now(), ringCap: ringCapDefault, rings: make([]ring, n), parks: make([]int64, n)}
}

// Label returns the backend label the recorder was created with.
func (r *Recorder) Label() string {
	if r == nil {
		return ""
	}
	return r.label
}

// N returns the number of rank rings.
func (r *Recorder) N() int {
	if r == nil {
		return 0
	}
	return r.n
}

// Now returns the current wall-clock timestamp in recorder time
// (monotonic ns since the owning collector's epoch).
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Emit records e on rank's ring. It must be called from the rank's own
// goroutine (the backend.Transport contract); it takes no locks.
// e.Rank is overwritten with rank.
func (r *Recorder) Emit(rank int, e Event) {
	if r == nil || rank < 0 || rank >= r.n {
		return
	}
	e.Rank = int32(rank)
	r.rings[rank].write(r.ringCap, e)
}

// SetParks records how many of rank's receives parked its goroutine (and
// so paid a sender's wake-up) rather than finding their message queued or
// catching it while spinning. It is a run total, not an event: the
// in-process fabric reports it once at Finish, after every rank has
// returned; transports whose receives block elsewhere leave it zero.
func (r *Recorder) SetParks(rank int, parks int64) {
	if r == nil || rank < 0 || rank >= r.n {
		return
	}
	r.parks[rank] = parks
}

// EmitSys records a coordinator-side event (lease, heartbeat, world
// start/finish, ...) on the mutex-guarded system ring. Safe from any
// goroutine. e.Rank is preserved (set it to the subject rank, or -1).
func (r *Recorder) EmitSys(e Event) {
	if r == nil {
		return
	}
	r.sysMu.Lock()
	r.sys.write(r.ringCap, e)
	r.sysMu.Unlock()
}

// Events returns rank's recorded events in write order and the count of
// events dropped by ring overflow. Call only after the run has finished.
func (r *Recorder) Events(rank int) ([]Event, int64) {
	if r == nil || rank < 0 || rank >= r.n {
		return nil, 0
	}
	return r.rings[rank].events()
}

// SysEvents returns the system-ring events and its dropped count.
func (r *Recorder) SysEvents() ([]Event, int64) {
	if r == nil {
		return nil, 0
	}
	r.sysMu.Lock()
	defer r.sysMu.Unlock()
	return r.sys.events()
}

// AllEvents returns every recorded event (all ranks plus the system
// ring) sorted by start timestamp. Post-run only; intended for tests
// and exporters.
func (r *Recorder) AllEvents() []Event {
	if r == nil {
		return nil
	}
	var out []Event
	for rank := 0; rank < r.n; rank++ {
		ev, _ := r.Events(rank)
		out = append(out, ev...)
	}
	sys, _ := r.SysEvents()
	out = append(out, sys...)
	sortEvents(out)
	return out
}

func sortEvents(ev []Event) {
	sort.SliceStable(ev, func(i, j int) bool { return ev[i].T < ev[j].T })
}
