package dist

import (
	"testing"

	"repro/internal/backend"
)

// TestInQueueMixedConsumption: the coordinator's inbox keeps per-source
// FIFO under interleaved targeted and any-source takes, and any-source
// takes follow exact arrival order even after a targeted take.
func TestInQueueMixedConsumption(t *testing.T) {
	q := backend.NewInbox[inMsg](3)
	for _, m := range []inMsg{{src: 1, tag: 10}, {src: 2, tag: 20}, {src: 1, tag: 11}} {
		q.Push(m.src, m)
	}
	if m, ok := q.Pop(1); !ok || m.tag != 10 {
		t.Fatalf("Pop(1) = %+v, %v, want tag 10", m, ok)
	}
	// Tag 20 arrived before tag 11, so it is next.
	for _, want := range []inMsg{{src: 2, tag: 20}, {src: 1, tag: 11}} {
		if src, m, ok := q.PopAny(); !ok || src != want.src || m.tag != want.tag {
			t.Fatalf("PopAny = %d, %+v, %v, want src %d tag %d", src, m, ok, want.src, want.tag)
		}
	}
	if _, _, ok := q.PopAny(); ok {
		t.Error("PopAny on a drained inbox returned ok")
	}
}
