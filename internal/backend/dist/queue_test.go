package dist

import "testing"

// TestInQueueOrderBounded pins the token-compaction contract: an inbox
// drained only by targeted pops must not grow its arrival-order slice
// with total traffic — token memory stays proportional to outstanding
// messages, like the in-process mailbox.
func TestInQueueOrderBounded(t *testing.T) {
	q := newInQueue(2)
	const rounds = 100000
	for i := 0; i < rounds; i++ {
		q.push(inMsg{src: 1, tag: i})
		m, ok := q.take(1, true)
		if !ok || m.tag != i {
			t.Fatalf("round %d: pop = %+v, %v", i, m, ok)
		}
	}
	if tokens := len(q.order) - q.ohead; tokens > 64 {
		t.Errorf("order slice holds %d tokens after drained targeted pops, want bounded", tokens)
	}
	if cap(q.order) > 4096 {
		t.Errorf("order capacity grew to %d over %d drained messages, want bounded", cap(q.order), rounds)
	}
}

// TestInQueueMixedConsumption checks per-source FIFO under interleaved
// targeted pops and popAny, including stale-token skipping.
func TestInQueueMixedConsumption(t *testing.T) {
	q := newInQueue(3)
	q.push(inMsg{src: 1, tag: 10})
	q.push(inMsg{src: 2, tag: 20})
	q.push(inMsg{src: 1, tag: 11})
	if m, ok := q.take(1, true); !ok || m.tag != 10 {
		t.Fatalf("pop(1) = %+v, %v, want tag 10", m, ok)
	}
	// Mixed consumption matches the in-process mailbox's documented
	// approximation: src 1's orphaned head token stands in for its newer
	// message, so popAny yields src 1's second message first; per-pair
	// FIFO holds throughout (tag 11 only ever after tag 10).
	if m, ok := q.take(-1, true); !ok || m.src != 1 || m.tag != 11 {
		t.Fatalf("popAny = %+v, %v, want src 1 tag 11", m, ok)
	}
	if m, ok := q.take(-1, true); !ok || m.src != 2 || m.tag != 20 {
		t.Fatalf("popAny = %+v, %v, want src 2 tag 20", m, ok)
	}
	if q.pending != 0 {
		t.Errorf("pending = %d after draining, want 0", q.pending)
	}
}

// TestInQueueCloseUnblocks pins that close releases a blocked consumer
// with ok=false (the worker-abandons-world path).
func TestInQueueCloseUnblocks(t *testing.T) {
	q := newInQueue(1)
	done := make(chan bool, 1)
	go func() {
		_, ok := q.take(-1, true)
		done <- ok
	}()
	q.close()
	if ok := <-done; ok {
		t.Error("popAny on closed queue returned ok=true")
	}
	if _, ok := q.take(0, true); ok {
		t.Error("pop on closed queue returned ok=true")
	}
}
