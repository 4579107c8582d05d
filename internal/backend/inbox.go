package backend

import (
	"math"
	"sync/atomic"
)

// seg is a segment of the FIFO from one source to one destination: a
// power-of-two ring of slots, free while their stamp is 0. The producer
// fills a free slot, then stores the arrival stamp; the consumer reads a
// stamped slot, clears it, then stores 0. A producer that finds its next
// slot full links a segment twice the size and moves on for good; the
// consumer follows once it has emptied this one. A P-process world costs
// O(P²) cursors, but segments only where messages flow.
type seg[M any] struct {
	slot []slot[M]
	next atomic.Pointer[seg[M]]
}

type slot[M any] struct {
	at atomic.Uint64
	m  M
}

// cursor is one side's segment and the absolute index of its next slot,
// written by that side only, except that the producer stores the first
// segment into both before the consumer can have anything to read.
type cursor[M any] struct {
	seg atomic.Pointer[seg[M]]
	i   int
}

// Inbox is one destination rank's queued messages: a single-producer,
// single-consumer FIFO per source, each message stamped with its arrival
// number. Pushes from src run on one goroutine (src's), Pop and PopAny
// on one other (the owner's); none takes a lock. PopAny returns the
// queued head with the smallest stamp: of two pushes ordered by happens-
// before, the first. That is exact cross-source arrival order under any
// mix of the two, at the price of an O(P) head scan.
type Inbox[M any] struct {
	// in[src*stride] is the producer's cursor of the FIFO from src, out[src]
	// the consumer's. The mailbox lays both out by writer, each rank's on
	// lines of their own. These headers never change after setup.
	in     []cursor[M]
	stride int
	out    []cursor[M]
	_      [8]byte // arrivals starts a line: the consumer reads the headers
	// arrivals counts the pushes; the count after a push is that
	// message's stamp. Every producer adds to it, only PopAny reads it.
	arrivals atomic.Uint64
}

// NewInbox returns an empty inbox for messages from n sources.
func NewInbox[M any](n int) *Inbox[M] {
	return &Inbox[M]{in: make([]cursor[M], n), stride: 1, out: make([]cursor[M], n)}
}

// Push queues m from src.
func (ib *Inbox[M]) Push(src int, m M) {
	c := &ib.in[src*ib.stride]
	s := c.seg.Load()
	if s == nil || s.slot[c.i&(len(s.slot)-1)].at.Load() != 0 {
		ns := new(seg[M])
		if s == nil {
			ns.slot = make([]slot[M], 8)
			ib.out[src].seg.Store(ns)
		} else {
			ns.slot = make([]slot[M], 2*len(s.slot))
			s.next.Store(ns)
		}
		s = ns
		c.seg.Store(s)
	}
	sl := &s.slot[c.i&(len(s.slot)-1)]
	sl.m = m
	c.i++
	sl.at.Store(ib.arrivals.Add(1))
}

// head returns src's oldest queued slot, or nil when none is visible. A
// segment whose successor was linked before its head slot read empty is
// drained: every slot was full at the link.
func (ib *Inbox[M]) head(src int) *slot[M] {
	c := &ib.out[src]
	for s := c.seg.Load(); s != nil; {
		next := s.next.Load()
		if sl := &s.slot[c.i&(len(s.slot)-1)]; sl.at.Load() != 0 {
			return sl
		}
		s = next
		if s != nil {
			c.seg.Store(s)
		}
	}
	return nil
}

// take dequeues src's head slot sl.
func (ib *Inbox[M]) take(src int, sl *slot[M]) M {
	m := sl.m
	sl.m = *new(M) // drop the payload reference for the GC
	sl.at.Store(0)
	ib.out[src].i++
	return m
}

// Pop dequeues src's oldest message; ok is false when src has none
// queued.
func (ib *Inbox[M]) Pop(src int) (m M, ok bool) {
	if sl := ib.head(src); sl != nil {
		return ib.take(src, sl), true
	}
	return m, false
}

// earliest returns the source whose head has the smallest stamp, and that
// head; -1 and nil when nothing is queued.
func (ib *Inbox[M]) earliest() (src int, head *slot[M]) {
	src, least := -1, uint64(math.MaxUint64)
	for s := range ib.out {
		if sl := ib.head(s); sl != nil && sl.at.Load() < least {
			src, head, least = s, sl, sl.at.Load()
		}
	}
	return src, head
}

// PopAny dequeues the earliest-arrived message from any source and
// returns it with its source; ok is false when nothing is queued. A scan
// can miss an earlier push published while it ran; arrivals has then
// moved, and a rescan finds a smaller head. So it scans until arrivals
// stands still across a scan or two scans agree.
func (ib *Inbox[M]) PopAny() (src int, m M, ok bool) {
	var sl *slot[M]
	for prev := -2; ; prev = src {
		a := ib.arrivals.Load()
		if src, sl = ib.earliest(); src == prev || ib.arrivals.Load() == a {
			break
		}
	}
	if sl == nil {
		return -1, m, false
	}
	return src, ib.take(src, sl), true
}

// ready reports whether src's FIFO (any source's when src < 0) has a
// message visible to the consumer.
func (ib *Inbox[M]) ready(src int) bool {
	if src < 0 {
		src, _ = ib.earliest()
		return src >= 0
	}
	return ib.head(src) != nil
}
