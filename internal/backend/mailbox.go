package backend

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// message is one unit in flight on the fabric. Messages are stored by
// value inside per-pair FIFO segments, so steady-state sends allocate
// nothing beyond the payload the program itself created.
type message struct {
	tag   int
	data  any
	bytes int
	// avail is the virtual time at which the message is available at the
	// receiver. Wall-clock transports leave it zero.
	avail float64
}

// inbox is one destination rank's mailbox: an Inbox of messages, whose
// sends and receives take no lock, plus the cond a receiver parks on. Its
// three lines: read-only headers, arrivals and waiting, the park's own.
type inbox struct {
	Inbox[message]
	// waiting is set by a receiver just before its last look at its
	// queue. Whoever clears it with a compare-and-swap (a sender or the
	// cancellation watcher) owns the wake-up and signals wake.
	waiting atomic.Bool
	_       [52]byte
	wake    sync.Cond // its Locker is the inbox: see Unlock
	parks   int64     // receives that waited on wake
}

// Lock and Unlock make the inbox wake's Locker, which locks nothing.
// wake.Wait calls Unlock once it has queued the receiver: a claim made
// before that signalled nobody, so the receiver then signals itself.
func (ib *inbox) Lock() {}
func (ib *inbox) Unlock() {
	if !ib.waiting.Load() {
		ib.wake.Signal()
	}
}

// CounterShard is one rank's message/byte tally, padded to its own cache
// line pair so concurrent senders never false-share. Only the rank's
// goroutine writes it, and it is read after every process has returned,
// so no atomics are needed. Every transport meters with it.
type CounterShard struct {
	Msgs  int64
	Bytes int64
	_     [112]byte
}

// Count records one cross-process message of the given size.
func (c *CounterShard) Count(bytes int) {
	c.Msgs++
	c.Bytes += int64(bytes)
}

// SumCounters aggregates per-rank shards once every process has returned.
func SumCounters(cs []CounterShard) (msgs, bytes int64) {
	for i := range cs {
		msgs += cs[i].Msgs
		bytes += cs[i].Bytes
	}
	return msgs, bytes
}

// fabric is the allocated substance of a mailbox: inboxes, cursors and
// counter shards, pooled by size so that the next same-sized world (the
// common case in sweeps and benchmark loops) skips construction.
type fabric struct {
	n        int
	inboxes  []inbox
	counters []CounterShard
}

func newFabric(n int) *fabric {
	f := &fabric{
		n:        n,
		inboxes:  make([]inbox, n),
		counters: make([]CounterShard, n),
	}
	w := (n + 3) &^ 3 // cursors per rank: whole 64-byte lines
	ins, outs := make([]cursor[message], n*w), make([]cursor[message], n*w)
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		ib.wake.L = ib
		ib.in, ib.stride, ib.out = ins[d:], w, outs[d*w:d*w+n:d*w+n]
	}
	return f
}

// reset drains what a run left queued, keeping each FIFO's last segment
// and dropping payload references, so pooling cannot pin application data.
func (f *fabric) reset() {
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		for s := range ib.out {
			for ib.out[s].i != ib.in[s*ib.stride].i { // cursors count pops and pushes
				ib.Pop(s)
			}
		}
		ib.arrivals.Store(0)
		ib.parks = 0
	}
	clear(f.counters)
}

// fabricPools holds a sync.Pool of fabrics per world size, so idle
// fabrics still age out with GC.
var fabricPools sync.Map // int (world size) -> *sync.Pool

func getFabric(n int) *fabric {
	if p, ok := fabricPools.Load(n); ok {
		if v := p.(*sync.Pool).Get(); v != nil {
			return v.(*fabric)
		}
	}
	return newFabric(n)
}

func putFabric(f *fabric) {
	f.reset()
	p, ok := fabricPools.Load(f.n)
	if !ok {
		p, _ = fabricPools.LoadOrStore(f.n, &sync.Pool{})
	}
	p.(*sync.Pool).Put(f)
}

// mailbox is the rank-to-rank FIFO fabric and message/byte accounting
// shared by every transport: backends differ in how they price messages,
// not in how they carry them. Message counting is sharded per sender and
// aggregated only in Finish; delivery goes through per-pair lock-free
// FIFOs, so no send or receive takes a lock.
type mailbox struct {
	n int
	f *fabric
	// spin is how many times a receiver that finds its queue empty
	// yields before it parks: spinYields in a wall-clock world that fits
	// its processors, 0 (park at once) otherwise.
	spin int
	// done is the run context's cancellation channel; nil when the context
	// can never be cancelled, which keeps cancellation off the hot path.
	done      <-chan struct{}
	cause     func() error // the run context's error once done is closed
	cancelled atomic.Bool  // flips on cancellation: blocked and later operations panic
	// stopCancel deregisters the context watcher; Finish calls it.
	stopCancel func() bool
	// watchDone closes when the context watcher callback has finished;
	// release waits on it when the callback won a race with Finish.
	watchDone chan struct{}
}

// spinYields is the yield-spin budget of wait, on the order of one
// park+wake round trip (the 2-competitive spin-then-block bound): the
// smallest budget on the plateau of the sweep in EXPERIMENTS.md.
const spinYields = 200

// newMailbox makes the fabric of an n-rank world. wallClock says the
// transport meters the run with the host clock; it is one half of the
// rule that decides, once per world, whether blocked ranks spin.
func newMailbox(ctx context.Context, n int, wallClock bool) *mailbox {
	mb := &mailbox{n: n, f: getFabric(n)}
	// A wall-clock world that fits its processors is run alone (sweeps
	// put it on the serial scheduler), so a blocked rank's processor has
	// nothing else to run. In a larger world it has another rank, and
	// virtual-time worlds run many at once (sweep pools, archserve): both
	// park at once.
	if wallClock && n <= runtime.GOMAXPROCS(0) {
		mb.spin = spinYields
	}
	if ctx.Done() != nil {
		mb.done = ctx.Done()
		mb.cause = ctx.Err
		mb.watchDone = make(chan struct{})
		f := mb.f
		mb.stopCancel = context.AfterFunc(ctx, func() {
			defer close(mb.watchDone)
			mb.cancelled.Store(true)
			// A receiver sets waiting, then checks cancelled: it sees
			// the store above, or its flag is claimed here and woken.
			// release waits for watchDone before pooling f.
			for i := range f.inboxes {
				if ib := &f.inboxes[i]; ib.waiting.CompareAndSwap(true, false) {
					ib.wake.Broadcast()
				}
			}
		})
	}
	return mb
}

// count records one cross-process message of the given size on the
// sender's shard.
func (mb *mailbox) count(src, bytes int) { mb.f.counters[src].Count(bytes) }

// totals aggregates the per-sender shards once every process has returned.
func (mb *mailbox) totals() (msgs, bytes int64) { return SumCounters(mb.f.counters) }

// release deregisters the cancellation watcher and returns the fabric to
// the pool. Transports call it from Finish, after every process has
// returned; the mailbox is dead afterwards.
func (mb *mailbox) release() {
	if mb.stopCancel != nil {
		if !mb.stopCancel() {
			// The watcher already started: let it finish with the fabric.
			<-mb.watchDone
		}
		mb.stopCancel = nil
	}
	f := mb.f
	mb.f = nil
	putFabric(f)
}

// push enqueues a message on the src→dst FIFO. Inboxes are unbounded, so
// senders never block; a send attempted after the run's context is
// cancelled raises the cancellation sentinel instead.
func (mb *mailbox) push(src, dst int, m message) {
	if mb.done != nil && mb.cancelled.Load() {
		panic(canceled{mb.cause()})
	}
	ib := &mb.f.inboxes[dst]
	ib.Push(src, m)
	if ib.waiting.Load() && ib.waiting.CompareAndSwap(true, false) {
		ib.wake.Signal()
	}
}

// wait blocks dst's receiver, which found src's queue (any source's when
// src < 0) empty, until it may not be; callers re-check in a loop. In a
// world that spins (see newMailbox) it first yields up to mb.spin times,
// looking at the queue after each: two symmetric ranks are a few µs
// apart, far less than a park and a cross-thread wake-up, and the sender
// may be queued on the spinner's own processor. Then it parks. No wake-up
// is lost: the receiver stores waiting, then looks at its queue; a sender
// publishes, then loads waiting. Go's atomics are sequentially
// consistent, so one of the two sees the other's store. A claim's signal
// that came before wake.Wait queued the receiver is made good by Unlock;
// a late one ends a later wait early. A cancelled run context ends the
// spin and raises the cancellation sentinel.
func (mb *mailbox) wait(ib *inbox, src int) {
	for i := 0; i < mb.spin && !mb.cancelled.Load(); i++ {
		runtime.Gosched()
		if ib.ready(src) {
			return
		}
	}
	ib.waiting.Store(true)
	if cancelled := mb.done != nil && mb.cancelled.Load(); cancelled || ib.ready(src) {
		ib.waiting.Store(false)
		if cancelled {
			panic(canceled{mb.cause()})
		}
		return
	}
	ib.parks++
	ib.wake.Wait()
	if ib.waiting.Load() {
		ib.waiting.Store(false) // woken early by a late signal
	}
}

// reportParks hands each inbox's park count to the run's recorder (nil,
// and inert, when the run is not traced), before release clears them.
func (mb *mailbox) reportParks(rec *obs.Recorder) {
	for rank := range mb.f.inboxes {
		rec.SetParks(rank, mb.f.inboxes[rank].parks)
	}
}

// pop dequeues the next message on the src→dst FIFO, panicking when its
// tag differs from the expected one (a broken communication protocol).
func (mb *mailbox) pop(src, dst, tag int) message {
	ib := &mb.f.inboxes[dst]
	msg, ok := ib.Pop(src)
	for !ok {
		mb.wait(ib, src)
		msg, ok = ib.Pop(src)
	}
	if msg.tag != tag {
		panic(fmt.Sprintf("backend: process %d expected tag %d from %d, got %d", dst, tag, src, msg.tag))
	}
	return msg
}

// popAny dequeues dst's earliest-arrived message from any source,
// returning the sender's rank.
func (mb *mailbox) popAny(dst, tag int) (int, message) {
	ib := &mb.f.inboxes[dst]
	src, msg, ok := ib.PopAny()
	for !ok {
		mb.wait(ib, -1)
		src, msg, ok = ib.PopAny()
	}
	if msg.tag != tag {
		panic(fmt.Sprintf("backend: process %d expected tag %d from any source, got %d from %d",
			dst, tag, msg.tag, src))
	}
	return src, msg
}
