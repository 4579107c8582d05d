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

// pairQueue is the FIFO from one source rank to one destination: a
// power-of-two ring buffer grown on demand. Queues start empty and
// unallocated, so a P-process world costs O(P²) queue headers but only
// pairs that actually communicate ever allocate storage — worlds are no
// longer dominated by up-front channel construction.
type pairQueue struct {
	buf  []message // power-of-two ring; nil until first push
	head int
	n    int
}

func (q *pairQueue) push(m message) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

func (q *pairQueue) grow() {
	nbuf := make([]message, max(8, 2*len(q.buf)))
	for i := 0; i < q.n; i++ {
		nbuf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nbuf
	q.head = 0
}

func (q *pairQueue) pop() message {
	m := q.buf[q.head]
	q.buf[q.head] = message{} // drop the payload reference for the GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m
}

// inbox is one destination rank's mailbox: per-source FIFO queues plus an
// arrival-order ring of source tokens. Exactly one goroutine (the rank's
// own) consumes from an inbox, while any rank may push into it, so a
// single mutex+cond per destination serializes only that destination's
// traffic — there is no global lock anywhere on the message path.
type inbox struct {
	mu   sync.Mutex
	cond sync.Cond
	// arrivals counts the pushes into this inbox in a world that spins
	// (mailbox.spin > 0; other worlds have no reader and skip the atomic).
	// It is bumped under mu and read without it by a consumer in the
	// yield-spin phase of wait, which watches for a change instead of
	// holding the lock.
	arrivals atomic.Uint64
	// parks counts the receives that fell through to cond.Wait: the ones
	// that paid a goroutine park and a sender's wake-up.
	parks int64
	// q[src] is the FIFO from src to this rank.
	q []pairQueue
	// pending counts queued messages across all sources.
	pending int
	// waiting is true while the consumer sits in cond.Wait, so senders
	// skip the Signal entirely in the common nobody-is-blocked case.
	waiting bool
	// order is a ring of source tokens in arrival order: popAny serves
	// first-come-first-served across sources, which is both O(1) and
	// fair, as long as the inbox is consumed by popAny alone. pop(src)
	// consumes messages without consuming tokens; stale[src] counts the
	// orphaned tokens (always the oldest of their source, since pop takes
	// the oldest message), and the ring is compacted once stale tokens
	// outnumber live ones, so token memory is bounded by outstanding
	// messages — not by the run's total traffic — even for inboxes only
	// ever drained by targeted pops. The invariant stale[src] ==
	// tokens(src) − queued(src) means a token for a non-empty queue
	// always exists while pending > 0, and a token found with an empty
	// queue is always accounted stale. After a targeted pop, an excess
	// token can stand in for a newer message from its source, so mixed
	// pop/popAny consumption keeps per-pair FIFO but only approximates
	// cross-source arrival order.
	order      []int32
	ohead      int
	olen       int
	stale      []int32 // lazily allocated on the first targeted pop
	staleTotal int
}

// noteStale records that src's oldest token lost its message to a
// targeted pop, compacting the ring when stale tokens outnumber live
// ones (live tokens == pending, so the ring stays within 2× the
// outstanding message count, amortized O(1) per pop).
func (ib *inbox) noteStale(src int) {
	if ib.stale == nil {
		ib.stale = make([]int32, len(ib.q))
	}
	ib.stale[src]++
	ib.staleTotal++
	if 2*ib.staleTotal > ib.olen {
		w := 0
		for i := 0; i < ib.olen; i++ {
			s := ib.order[(ib.ohead+i)&(len(ib.order)-1)]
			if ib.stale[s] > 0 {
				ib.stale[s]--
				continue
			}
			ib.order[(ib.ohead+w)&(len(ib.order)-1)] = s
			w++
		}
		ib.olen = w
		ib.staleTotal = 0
	}
}

func (ib *inbox) pushOrder(src int) {
	if ib.olen == len(ib.order) {
		norder := make([]int32, max(8, 2*len(ib.order)))
		for i := 0; i < ib.olen; i++ {
			norder[i] = ib.order[(ib.ohead+i)&(len(ib.order)-1)]
		}
		ib.order = norder
		ib.ohead = 0
	}
	ib.order[(ib.ohead+ib.olen)&(len(ib.order)-1)] = int32(src)
	ib.olen++
}

func (ib *inbox) popOrder() int {
	src := ib.order[ib.ohead]
	ib.ohead = (ib.ohead + 1) & (len(ib.order) - 1)
	ib.olen--
	return int(src)
}

// counterShard is one rank's message/byte tally, padded to its own cache
// line pair so concurrent senders never false-share. Each shard is written
// only by the goroutine running that rank and read in Finish, which runs
// after every process has returned — the world's WaitGroup provides the
// happens-before edge, so no atomics are needed.
type counterShard struct {
	msgs  int64
	bytes int64
	_     [112]byte
}

// fabric is the allocated substance of a mailbox: inboxes, queue headers,
// and counter shards. It is separated from the mailbox so Finish can
// return it to a size-keyed pool and the next same-sized world (the
// common case in sweeps and benchmark loops) skips construction entirely.
type fabric struct {
	n        int
	inboxes  []inbox
	counters []counterShard
	queues   []pairQueue // backing store: inboxes[d].q = queues[d*n:(d+1)*n]
}

func newFabric(n int) *fabric {
	f := &fabric{
		n:        n,
		inboxes:  make([]inbox, n),
		counters: make([]counterShard, n),
		queues:   make([]pairQueue, n*n),
	}
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		ib.cond.L = &ib.mu
		ib.q = f.queues[d*n : (d+1)*n : (d+1)*n]
	}
	return f
}

// reset clears leftover state (a run may finish with undrained messages)
// while keeping every ring's storage, then drops payload references so
// pooling cannot pin application data.
func (f *fabric) reset() {
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		for s := range ib.q {
			q := &ib.q[s]
			for q.n > 0 {
				q.pop()
			}
			q.head = 0
		}
		ib.pending = 0
		ib.waiting = false
		ib.arrivals.Store(0)
		ib.parks = 0
		ib.ohead, ib.olen = 0, 0
		for s := range ib.stale {
			ib.stale[s] = 0
		}
		ib.staleTotal = 0
	}
	for i := range f.counters {
		f.counters[i] = counterShard{}
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
func (mb *mailbox) count(src, bytes int) {
	sh := &mb.f.counters[src]
	sh.msgs++
	sh.bytes += int64(bytes)
}

// totals aggregates the per-sender shards. Valid only after every process
// has returned (Finish time).
func (mb *mailbox) totals() (msgs, bytes int64) {
	for i := range mb.f.counters {
		sh := &mb.f.counters[i]
		msgs += sh.msgs
		bytes += sh.bytes
	}
	return msgs, bytes
}

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
	ib.q[src].push(m)
	ib.pushOrder(src)
	ib.pending++
	if mb.spin > 0 {
		ib.arrivals.Add(1)
	}
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
	q := &ib.q[src]
	for q.n == 0 {
		mb.wait(ib)
	}
	msg := q.pop()
	ib.pending--
	ib.noteStale(src)
	ib.mu.Unlock()
	if msg.tag != tag {
		panic(fmt.Sprintf("backend: process %d expected tag %d from %d, got %d", dst, tag, src, msg.tag))
	}
	return msg
}

// popAny dequeues the next message for dst from any source, returning
// the sender's rank: in cross-source arrival order when popAny is the
// inbox's only consumer (see the order field for the mixed-consumption
// caveat), always FIFO per source. The only panics it can raise are the
// protocol tag check and the cancellation sentinel.
func (mb *mailbox) popAny(dst, tag int) (int, message) {
	ib := &mb.f.inboxes[dst]
	ib.mu.Lock()
	for ib.pending == 0 {
		mb.wait(ib)
	}
	var src int
	for {
		src = ib.popOrder()
		if ib.q[src].n > 0 {
			break
		}
		// Excess token: its message was taken by a targeted pop (so it
		// is accounted in stale — settle the books as it leaves).
		ib.stale[src]--
		ib.staleTotal--
	}
	msg := ib.q[src].pop()
	ib.pending--
	ib.mu.Unlock()
	if msg.tag != tag {
		panic(fmt.Sprintf("backend: process %d expected tag %d from any source, got %d from %d",
			dst, tag, msg.tag, src))
	}
	return src, msg
}
