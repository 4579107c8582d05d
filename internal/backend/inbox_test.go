package backend

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// TestProducerOutrunsConsumer: a producer pulls ahead of its consumer by
// up to 10⁵ messages, so the FIFO grows through every segment size from
// 8 to 2¹⁷ while the consumer pops. The consumer takes message i only once
// 2i have been pushed, so the backlog grows by one every two pushes. Every
// message must arrive once and in order, and the drained FIFO must hold no
// stamp or payload.
func TestProducerOutrunsConsumer(t *testing.T) {
	const lead = 100_000
	ib := NewInbox[*int](2)
	var pushed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2*lead; i++ {
			ib.Push(1, &i)
			pushed.Add(1)
		}
	}()
	for i := 0; i < 2*lead; i++ {
		for i < lead && pushed.Load() < int64(2*i) {
			runtime.Gosched()
		}
		m, ok := ib.Pop(1)
		for ; !ok; m, ok = ib.Pop(1) {
			runtime.Gosched()
		}
		if *m != i {
			t.Fatalf("pop %d returned message %d", i, *m)
		}
	}
	<-done
	if _, ok := ib.Pop(1); ok {
		t.Fatal("a message left after the last pop")
	}
	last := ib.out[1].seg.Load()
	if len(last.slot) < 1<<17 {
		t.Fatalf("last segment has %d slots, want at least %d for a lead of %d", len(last.slot), 1<<17, lead)
	}
	for i := range last.slot {
		if sl := &last.slot[i]; sl.at.Load() != 0 || sl.m != nil {
			t.Fatalf("drained slot %d still holds stamp %d, payload %v", i, sl.at.Load(), sl.m)
		}
	}
}

// TestPopAnyHappensBeforeOrder: four producer goroutines share 256
// sources and pass a turn around, so every push happens before the next
// one. The k-th push goes to source 65k mod 256: mostly one that a head
// scan reaches 65 sources after the previous push's, where a single scan
// racing the pushes would see the later message and not the earlier. A
// consumer taking from any source concurrently must see them in order.
func TestPopAnyHappensBeforeOrder(t *testing.T) {
	atGOMAXPROCS(t, []int{2, 4}, func(t *testing.T) {
		const sources, producers, step = 256, 4, 65
		msgs := stressMessages() / 4
		ib := NewInbox[int](sources)
		var turn atomic.Int64
		for g := 0; g < producers; g++ {
			go func() {
				for k := g; k < msgs; k += producers {
					for turn.Load() != int64(k) {
						runtime.Gosched()
					}
					ib.Push(step*k%sources, k) // ≡ k (mod 4): this producer's sources
					turn.Store(int64(k + 1))
				}
			}()
		}
		for k := 0; k < msgs; k++ {
			src, m, ok := ib.PopAny()
			for ; !ok; src, m, ok = ib.PopAny() {
				runtime.Gosched()
			}
			if m != k || src != step*k%sources {
				t.Fatalf("PopAny %d returned message %d from source %d", k, m, src)
			}
		}
	})
}

// TestSpinParkWakeStress: two ranks exchange messages with compute between
// them drawn so that most receives are caught while spinning and about
// one in eight outlasts the spin and parks. At GOMAXPROCS 1 the world
// parks at once; at 2 it spins first, and both paths must then be taken.
// Every message must arrive in order and no rank may hang.
func TestSpinParkWakeStress(t *testing.T) {
	atGOMAXPROCS(t, []int{1, 2}, func(t *testing.T) {
		mb := newMailbox(context.Background(), 2, true)
		rounds := stressMessages() / 5
		stressRanks(t, mb, func(r int) error {
			rng := rand.New(rand.NewSource(int64(r) + 7))
			sink := 1.0
			for i := 0; i < rounds; i++ {
				compute(rng, &sink)
				if rng.Intn(8) == 0 {
					for k := 0; k < 20; k++ { // ≈ 0.5 ms, past the spin
						compute(rng, &sink)
					}
				}
				mb.push(r, 1-r, message{tag: 4, data: i})
				if got := mb.pop(1-r, r, 4).data.(int); got != i {
					return fmt.Errorf("rank %d round %d: got message %d", r, i, got)
				}
			}
			return nil
		})
		if mb.spin > 0 {
			parks := mb.f.inboxes[0].parks + mb.f.inboxes[1].parks
			if parks == 0 || parks >= int64(2*rounds) {
				t.Errorf("%d parks in %d receives: want some receives parked and some caught spinning", parks, 2*rounds)
			}
		}
		mb.release()
	})
}

// TestInboxLinesByWriter: each cache line of the fabric's hot state has
// one writer per message. An inbox is three lines: headers nobody writes
// after setup, the line its senders write (arrivals) and read (waiting),
// and the park's cond and count, which only a park and its wake-up touch.
// Each rank's producer cursors (one per destination) and consumer cursors
// (one per source) fill lines of their own.
func TestInboxLinesByWriter(t *testing.T) {
	var ib inbox
	line := func(off uintptr) uintptr { return off / 64 }
	if size := unsafe.Sizeof(ib); size != 3*64 {
		t.Fatalf("inbox is %d bytes, want three 64-byte lines", size)
	}
	for name, want := range map[string]struct{ off, line uintptr }{
		"in":       {unsafe.Offsetof(ib.in), 0},
		"out":      {unsafe.Offsetof(ib.out), 0},
		"stride":   {unsafe.Offsetof(ib.stride), 0},
		"arrivals": {unsafe.Offsetof(ib.arrivals), 1},
		"waiting":  {unsafe.Offsetof(ib.waiting), 1},
		"wake":     {unsafe.Offsetof(ib.wake), 2},
		"parks":    {unsafe.Offsetof(ib.parks), 2},
	} {
		if line(want.off) != want.line {
			t.Errorf("inbox.%s at offset %d is on line %d, want %d", name, want.off, line(want.off), want.line)
		}
	}
	for _, n := range []int{1, 2, 3, 5, 16} {
		f := newFabric(n)
		lines := map[uintptr]string{}
		own := func(c *cursor[message], who string) {
			l := uintptr(unsafe.Pointer(c)) / 64
			if prev, ok := lines[l]; ok && prev != who {
				t.Errorf("n=%d: a cursor line is written by %s and by %s", n, prev, who)
			}
			lines[l] = who
		}
		for d := range f.inboxes {
			for s := 0; s < n; s++ {
				own(&f.inboxes[d].in[s*f.inboxes[d].stride], fmt.Sprintf("rank %d", s))
				own(&f.inboxes[d].out[s], fmt.Sprintf("rank %d", d))
			}
		}
	}
}
