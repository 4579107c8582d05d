package dist

import "sync"

// inMsg is one banked message: the delivery header plus the opaque
// payload bytes the coordinator will decode.
type inMsg struct {
	src     int
	tag     int
	metered int
	payload []byte
}

// inQueue is the coordinator's per-rank inbox for eagerly pushed
// deliveries: per-source FIFO queues plus an arrival-order token list, a
// deliberately small cousin of the in-process mailbox (same semantics —
// per-pair FIFO always, cross-source arrival order for any-source takes — without
// the pooling and cache-padding machinery the host-speed fabric needs; an
// inbox's depth is bounded by messages in flight toward one rank). The
// owning rank's goroutine banks deliveries it reads off its control
// connection and consumes them with a non-blocking take (it blocks on the
// connection read, never on the inbox); a waiting take plus close serve
// callers with concurrent producers.
type inQueue struct {
	mu      sync.Mutex
	cond    sync.Cond
	qs      []msgFIFO
	order   []int32 // arrival-order source tokens, ohead..len live
	ohead   int
	stale   []int32 // per-source tokens orphaned by targeted pops
	nstale  int
	pending int
	closed  bool
}

// msgFIFO is one source's queue: a slice consumed from head, compacted
// when the dead prefix dominates.
type msgFIFO struct {
	buf  []inMsg
	head int
}

func (q *msgFIFO) push(m inMsg) { q.buf = append(q.buf, m) }

func (q *msgFIFO) len() int { return len(q.buf) - q.head }

func (q *msgFIFO) pop() inMsg {
	m := q.buf[q.head]
	q.buf[q.head] = inMsg{}
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	} else if q.head > 64 && 2*q.head > len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = inMsg{}
		}
		q.buf, q.head = q.buf[:n], 0
	}
	return m
}

func newInQueue(n int) *inQueue {
	q := &inQueue{qs: make([]msgFIFO, n), stale: make([]int32, n)}
	q.cond.L = &q.mu
	return q
}

func (q *inQueue) push(m inMsg) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.qs[m.src].push(m)
	q.order = append(q.order, int32(m.src))
	q.pending++
	q.mu.Unlock()
	q.cond.Broadcast()
}

// compactOrder drops consumed tokens once they dominate, keeping token
// memory proportional to outstanding messages.
func (q *inQueue) compactOrder() {
	if q.ohead > 64 && 2*q.ohead > len(q.order) {
		n := copy(q.order, q.order[q.ohead:])
		q.order, q.ohead = q.order[:n], 0
	}
}

// noteStale records that src's oldest token lost its message to a
// targeted take and rewrites the live token region once stale tokens
// outnumber live ones (live tokens == pending), bounding order memory by
// outstanding messages even when the inbox is only ever drained by
// targeted takes — mirroring the in-process mailbox's compaction.
func (q *inQueue) noteStale(src int) {
	q.stale[src]++
	q.nstale++
	if 2*q.nstale > len(q.order)-q.ohead {
		live := q.order[q.ohead:]
		out := q.order[:0]
		for _, s := range live {
			if q.stale[s] > 0 {
				q.stale[s]--
				continue
			}
			out = append(out, s)
		}
		q.order, q.ohead, q.nstale = out, 0, 0
	}
}

// take returns the oldest message from src, or for src < 0 the oldest by
// cross-source arrival order. With wait it blocks until one is banked;
// ok=false means the queue is closed or, without wait, that none is.
func (q *inQueue) take(src int, wait bool) (inMsg, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for src >= 0 && q.qs[src].len() == 0 || src < 0 && q.pending == 0 {
		if !wait || q.closed {
			return inMsg{}, false
		}
		q.cond.Wait()
	}
	if src >= 0 {
		m := q.qs[src].pop()
		q.pending--
		// The popped message's token (the oldest of its source) is now
		// orphaned; an any-source take skips it via the stale count, and
		// noteStale compacts once orphans dominate.
		q.noteStale(src)
		return m, true
	}
	for {
		src := int(q.order[q.ohead])
		q.ohead++
		q.compactOrder()
		if q.qs[src].len() > 0 {
			m := q.qs[src].pop()
			q.pending--
			return m, true
		}
		// Token orphaned by a targeted take: settle and keep scanning.
		q.stale[src]--
		q.nstale--
	}
}

func (q *inQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
