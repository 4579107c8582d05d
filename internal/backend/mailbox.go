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
// value inside per-pair ring buffers, so steady-state sends allocate
// nothing beyond the payload the program itself created.
type message struct {
	tag   int
	data  any
	bytes int
	// avail is the virtual time at which the message is available at the
	// receiver. Wall-clock transports leave it zero.
	avail float64
}

// inbox is one destination rank's mailbox: an Inbox of messages behind a
// mutex+cond. Exactly one goroutine (the rank's own) consumes from an
// inbox, while any rank may push into it, so a single mutex+cond per
// destination serializes only that destination's traffic — there is no
// global lock anywhere on the message path. The Inbox's arrival counter,
// bumped under mu on every push, is also what a consumer in the
// yield-spin phase of wait watches instead of holding the lock.
type inbox struct {
	mu   sync.Mutex
	cond sync.Cond
	Inbox[message]
	// parks counts the receives that fell through to cond.Wait: the ones
	// that paid a goroutine park and a sender's wake-up.
	parks int64
	// waiting is true while the consumer sits in cond.Wait, so senders
	// skip the Signal entirely in the common nobody-is-blocked case.
	waiting bool
	// Pads the inbox to two whole cache lines, so one rank's inbox never
	// shares a line with its neighbour's in the fabric's array.
	_ [8]byte
}

// CounterShard is one rank's message/byte tally, padded to its own cache
// line pair so concurrent senders never false-share. Each shard is written
// only by the goroutine running that rank and read after every process
// has returned — the world's WaitGroup provides the happens-before edge,
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

// SumCounters aggregates per-rank shards. Valid only after every process
// has returned.
func SumCounters(cs []CounterShard) (msgs, bytes int64) {
	for i := range cs {
		msgs += cs[i].Msgs
		bytes += cs[i].Bytes
	}
	return msgs, bytes
}

// fabric is the allocated substance of a mailbox: inboxes, queue headers,
// and counter shards. It is separated from the mailbox so Finish can
// return it to a size-keyed pool and the next same-sized world (the
// common case in sweeps and benchmark loops) skips construction entirely.
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
	queues := make([]ring[message], n*n) // one allocation for every inbox's rings
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		ib.cond.L = &ib.mu
		ib.q = queues[d*n : (d+1)*n : (d+1)*n]
	}
	return f
}

// reset clears leftover state (a run may finish with undrained messages)
// while keeping every ring's storage, then drops payload references so
// pooling cannot pin application data.
func (f *fabric) reset() {
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		ib.Inbox.reset()
		ib.waiting = false
		ib.parks = 0
	}
	for i := range f.counters {
		f.counters[i] = CounterShard{}
	}
}

// fabricPools pools fabrics by world size through per-size sync.Pools, so
// repeated same-sized worlds (sweep cells, benchmark iterations) reuse
// their predecessor's allocation and idle fabrics still age out with GC.
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
// aggregated only in Finish; delivery goes through per-destination
// inboxes, so neither path takes a lock shared between unrelated ranks.
type mailbox struct {
	n int
	f *fabric
	// spin is how many times a consumer that finds its queue empty
	// yields, watching the arrival counter, before it parks: spinYields
	// in a wall-clock world that fits its processors, 0 (park at once)
	// otherwise.
	spin int
	// done is the run context's cancellation channel; nil when the context
	// can never be cancelled, which keeps the hot path free of any
	// cancellation checks.
	done <-chan struct{}
	// cause reads the run context's error once done is closed.
	cause func() error
	// cancelled flips when the run context is cancelled; blocked and
	// subsequently attempted operations observe it and raise the
	// cancellation sentinel.
	cancelled atomic.Bool
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
	// A wall-clock world that fits its processors trades an idle core for
	// wake-up latency: such worlds are run one at a time (sweeps put them
	// on the serial scheduler so measurements do not contend), so a
	// blocked rank's processor has nothing else to run. In a larger world
	// it has another rank, and virtual-time worlds are run many at once
	// (sweep pools, archserve), where it has another world: both park at
	// once.
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
			// Taking each inbox lock before broadcasting guarantees any
			// consumer that checked cancelled before the store is already
			// parked in Wait (it holds the lock between check and Wait),
			// so the wakeup cannot be lost. The callback captures the
			// fabric directly — release waits for watchDone before
			// pooling it, so f is never a recycled fabric here.
			for i := range f.inboxes {
				ib := &f.inboxes[i]
				ib.mu.Lock()
				ib.cond.Broadcast()
				ib.mu.Unlock()
			}
		})
	}
	return mb
}

// count records one cross-process message of the given size on the
// sender's shard. Only src's goroutine touches shard src, so this is a
// plain unsynchronized increment.
func (mb *mailbox) count(src, bytes int) { mb.f.counters[src].Count(bytes) }

// totals aggregates the per-sender shards. Valid only after every process
// has returned (Finish time).
func (mb *mailbox) totals() (msgs, bytes int64) { return SumCounters(mb.f.counters) }

// release deregisters the cancellation watcher and returns the fabric to
// the pool. The mailbox must not be used afterwards; transports call it
// from Finish, which the Transport contract places after every process
// has returned.
func (mb *mailbox) release() {
	if mb.stopCancel != nil {
		if !mb.stopCancel() {
			// The watcher callback already started (the context was
			// cancelled as the run finished): wait until it is done with
			// the fabric before handing the fabric to the pool.
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
	ib.mu.Lock()
	ib.Push(src, m)
	wake := ib.waiting
	ib.mu.Unlock()
	if wake {
		ib.cond.Signal()
	}
}

// wait blocks dst's consumer, which holds ib.mu and found nothing to
// take, until a push may have changed that; callers re-check their queue
// in a loop. In a world that spins (see newMailbox) it first drops the
// lock and yields up to mb.spin times while the arrival counter stands still:
// two symmetric ranks are only a few µs apart, far less than a park and
// the sender's cross-thread wake-up. It yields instead of busy-looping
// because the sender may be queued on the spinner's own processor. Then
// it parks until a sender signals. Pushes bump the counter under the
// lock, so a counter unchanged once the lock is held again means nothing
// arrived in between and no wake-up can be lost. A cancelled run context
// ends the spin and raises the cancellation sentinel (after releasing the
// lock — a waiting sender must be able to acquire it and observe the
// cancellation itself).
func (mb *mailbox) wait(ib *inbox) {
	if mb.spin > 0 {
		seen := ib.arrivals.Load()
		ib.mu.Unlock()
		for i := 0; i < mb.spin && ib.arrivals.Load() == seen && !mb.cancelled.Load(); i++ {
			runtime.Gosched()
		}
		ib.mu.Lock()
		if ib.arrivals.Load() != seen {
			return
		}
	}
	if mb.done != nil && mb.cancelled.Load() {
		ib.mu.Unlock()
		panic(canceled{mb.cause()})
	}
	ib.waiting = true
	ib.parks++
	ib.cond.Wait()
	ib.waiting = false
}

// reportParks hands each inbox's park count to the run's recorder (nil,
// and inert, when the run is not traced). Transports call it from Finish,
// before release clears the fabric.
func (mb *mailbox) reportParks(rec *obs.Recorder) {
	for rank := range mb.f.inboxes {
		rec.SetParks(rank, mb.f.inboxes[rank].parks)
	}
}

// pop dequeues the next message on the src→dst FIFO, panicking when its
// tag differs from the expected one (a broken communication protocol). A
// cancelled run context raises the cancellation sentinel instead of
// waiting forever for a sender that will never come.
func (mb *mailbox) pop(src, dst, tag int) message {
	ib := &mb.f.inboxes[dst]
	ib.mu.Lock()
	msg, ok := ib.Pop(src)
	for !ok {
		mb.wait(ib)
		msg, ok = ib.Pop(src)
	}
	ib.mu.Unlock()
	if msg.tag != tag {
		panic(fmt.Sprintf("backend: process %d expected tag %d from %d, got %d", dst, tag, src, msg.tag))
	}
	return msg
}

// popAny dequeues dst's earliest-arrived message from any source,
// returning the sender's rank. The only panics it can raise are the
// protocol tag check and the cancellation sentinel.
func (mb *mailbox) popAny(dst, tag int) (int, message) {
	ib := &mb.f.inboxes[dst]
	ib.mu.Lock()
	src, msg, ok := ib.PopAny()
	for !ok {
		mb.wait(ib)
		src, msg, ok = ib.PopAny()
	}
	ib.mu.Unlock()
	if msg.tag != tag {
		panic(fmt.Sprintf("backend: process %d expected tag %d from any source, got %d from %d",
			dst, tag, msg.tag, src))
	}
	return src, msg
}
