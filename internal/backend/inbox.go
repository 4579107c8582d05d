package backend

import (
	"math"
	"sync/atomic"
)

// ring is the FIFO from one source rank to one destination: a
// power-of-two ring buffer grown on demand. Rings start empty and
// unallocated, so a P-process world costs O(P²) ring headers but only
// pairs that actually communicate ever allocate storage. Messages are
// stored by value with their arrival stamp.
type ring[M any] struct {
	buf  []stamped[M] // power-of-two ring; nil until first push
	head int
	n    int
}

type stamped[M any] struct {
	at uint64
	m  M
}

func (q *ring[M]) push(at uint64, m M) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = stamped[M]{at, m}
	q.n++
}

func (q *ring[M]) grow() {
	nbuf := make([]stamped[M], max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nbuf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf, q.head = nbuf, 0
}

func (q *ring[M]) pop() M {
	m := q.buf[q.head].m
	q.buf[q.head] = stamped[M]{} // drop the payload reference for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

// Inbox is one destination rank's queued messages: a FIFO per source,
// every message stamped with its arrival number. Pop returns its
// source's head; PopAny returns the head with the smallest stamp, which
// is the earliest-arrived message still queued. That is exact
// cross-source arrival order under any mix of the two, at the price of
// an O(P) scan of the source heads per PopAny.
//
// An Inbox does no locking: its owner serializes every call (the
// in-process mailbox under the inbox mutex, dist by touching a rank's
// inbox only from that rank's goroutine). Only the arrival counter may be
// read concurrently.
type Inbox[M any] struct {
	// q[src] is the FIFO from src.
	q []ring[M]
	// pending counts queued messages across all sources.
	pending int
	// arrivals counts the pushes; the count after a push is that
	// message's stamp. Atomic so that a consumer can watch it without
	// holding its owner's lock (see mailbox.wait). Worlds that never spin
	// pay for the atomic too, ≈ 12 ns a message on a 2-core Xeon guest,
	// which neither serve-mixed nor backend.sim_oneway_us resolves
	// (EXPERIMENTS.md, "One inbox"), so one counter serves both.
	arrivals atomic.Uint64
}

// NewInbox returns an empty inbox for messages from n sources.
func NewInbox[M any](n int) *Inbox[M] {
	return &Inbox[M]{q: make([]ring[M], n)}
}

// Push queues m from src. The new count is stored last: a consumer that
// watches arrivals without the lock (mailbox.wait) reaches for the lock
// as the count moves, so the pusher should be about to release it.
func (ib *Inbox[M]) Push(src int, m M) {
	at := ib.arrivals.Load() + 1 // only pushes write it, one at a time
	ib.q[src].push(at, m)
	ib.pending++
	ib.arrivals.Store(at)
}

// Pop dequeues src's oldest message; ok is false when src has none
// queued.
func (ib *Inbox[M]) Pop(src int) (m M, ok bool) {
	q := &ib.q[src]
	if q.n == 0 {
		return m, false
	}
	ib.pending--
	return q.pop(), true
}

// PopAny dequeues the earliest-arrived message from any source and
// returns it with its source; ok is false when nothing is queued.
func (ib *Inbox[M]) PopAny() (src int, m M, ok bool) {
	if ib.pending == 0 {
		return -1, m, false
	}
	earliest := uint64(math.MaxUint64)
	for s := range ib.q {
		if q := &ib.q[s]; q.n > 0 && q.buf[q.head].at < earliest {
			src, earliest = s, q.buf[q.head].at
		}
	}
	ib.pending--
	return src, ib.q[src].pop(), true
}

// reset empties the inbox, keeping every ring's storage and dropping
// payload references so a pooled inbox cannot pin application data.
func (ib *Inbox[M]) reset() {
	for s := range ib.q {
		q := &ib.q[s]
		for q.n > 0 {
			q.pop()
		}
		q.head = 0
	}
	ib.pending = 0
	ib.arrivals.Store(0)
}
