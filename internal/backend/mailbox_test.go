package backend

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
)

// TestPopAnyArrivalOrder: popAny serves strictly in arrival order across
// sources — the fabric's fairness guarantee — while preserving each
// pair's FIFO. Pushes and pops run on one goroutine, so the expected
// order is exact, not a smoke check.
func TestPopAnyArrivalOrder(t *testing.T) {
	mb := newMailbox(context.Background(), 4, true)
	arrivals := []struct{ src, val int }{
		{2, 10}, {0, 20}, {2, 11}, {1, 30}, {0, 21}, {3, 40},
	}
	for _, a := range arrivals {
		mb.push(a.src, 0, message{tag: 7, data: a.val})
	}
	for i, want := range arrivals {
		src, msg := mb.popAny(0, 7)
		if src != want.src || msg.data.(int) != want.val {
			t.Fatalf("popAny %d = (src %d, %v), want (src %d, %d)", i, src, msg.data, want.src, want.val)
		}
	}
}

// TestPopAnyExactAfterTargetedPop: any-source pops serve exact arrival
// order across sources even after a targeted pop has taken the earliest
// message.
func TestPopAnyExactAfterTargetedPop(t *testing.T) {
	mb := newMailbox(context.Background(), 3, true)
	mb.push(1, 0, message{tag: 1, data: "a1"})
	mb.push(2, 0, message{tag: 1, data: "b1"})
	mb.push(1, 0, message{tag: 1, data: "a2"})
	if got := mb.pop(1, 0, 1); got.data != "a1" {
		t.Fatalf("pop(1) = %v, want a1", got.data)
	}
	// b1 arrived before a2, so it is next, whatever pop(1) took.
	for _, want := range []struct {
		src  int
		data string
	}{{2, "b1"}, {1, "a2"}} {
		src, msg := mb.popAny(0, 1)
		if src != want.src || msg.data != want.data {
			t.Fatalf("popAny = (src %d, %v), want (%d, %s)", src, msg.data, want.src, want.data)
		}
	}
}

// TestPairFIFOThroughRingGrowth: per-pair order survives ring-buffer
// growth (more messages than the initial ring capacity).
func TestPairFIFOThroughRingGrowth(t *testing.T) {
	mb := newMailbox(context.Background(), 2, true)
	const n = 100 // well past the initial ring size of 8
	for i := 0; i < n; i++ {
		mb.push(1, 0, message{tag: 3, data: i})
	}
	for i := 0; i < n; i++ {
		if got := mb.pop(1, 0, 3); got.data.(int) != i {
			t.Fatalf("pop %d = %v, want %d", i, got.data, i)
		}
	}
}

// TestPopAnyCancellationSentinel is the regression test for the old
// popAny's impossible branch (a plain-string panic on a closed channel):
// cancellation must be the only way a blocked popAny unwinds, and it must
// unwind with the canceled sentinel that AsCanceled recognizes, not a
// plain panic.
func TestPopAnyCancellationSentinel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	mb := newMailbox(ctx, 2, true)
	unwound := make(chan any, 1)
	go func() {
		defer func() { unwound <- recover() }()
		mb.popAny(0, 1) // nothing will ever arrive
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case r := <-unwound:
		err, ok := AsCanceled(r)
		if !ok {
			t.Fatalf("popAny unwound with %v, want the canceled sentinel", r)
		}
		if err != context.Canceled {
			t.Fatalf("sentinel carries %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked popAny did not unwind on cancellation")
	}
}

// TestPopTagMismatchMentionsRanks: the protocol panics stay descriptive,
// and verbatim — tools and people grep for them.
func TestPopTagMismatchMentionsRanks(t *testing.T) {
	panicOf := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}
	mb := newMailbox(context.Background(), 2, true)
	mb.push(1, 0, message{tag: 5})
	mb.push(1, 0, message{tag: 5})
	if got, want := panicOf(func() { mb.pop(1, 0, 6) }), "backend: process 0 expected tag 6 from 1, got 5"; got != want {
		t.Errorf("pop panic = %v, want %q", got, want)
	}
	if got, want := panicOf(func() { mb.popAny(0, 6) }), "backend: process 0 expected tag 6 from any source, got 5 from 1"; got != want {
		t.Errorf("popAny panic = %v, want %q", got, want)
	}
}

// TestShardedCountsAggregate: per-sender shards sum to the run totals.
func TestShardedCountsAggregate(t *testing.T) {
	mb := newMailbox(context.Background(), 4, true)
	mb.count(0, 10)
	mb.count(3, 5)
	mb.count(3, 7)
	msgs, bytes := mb.totals()
	if msgs != 3 || bytes != 22 {
		t.Fatalf("totals = %d msgs %d bytes, want 3/22", msgs, bytes)
	}
}

// TestFabricResetClearsState: a pooled fabric carries no messages,
// counters, or arrival stamps from its previous run, and drops payload
// references so the pool cannot pin application data.
func TestFabricResetClearsState(t *testing.T) {
	f := newFabric(2)
	mb := &mailbox{n: 2, f: f}
	payload := make([]byte, 1024)
	mb.push(0, 1, message{tag: 1, data: payload})
	mb.push(1, 0, message{tag: 2, data: "x"})
	mb.count(0, 99)
	f.reset()
	for d := range f.inboxes {
		ib := &f.inboxes[d]
		if ib.ready(-1) || ib.arrivals.Load() != 0 {
			t.Fatalf("inbox %d not reset: ready %v, arrivals %d", d, ib.ready(-1), ib.arrivals.Load())
		}
		for s := range ib.out {
			for sg := ib.out[s].seg.Load(); sg != nil; sg = sg.next.Load() {
				for i := range sg.slot {
					if sl := &sg.slot[i]; sl.at.Load() != 0 || sl.m.data != nil {
						t.Fatalf("queue %d->%d slot %d still holds stamp %d, payload %v", s, d, i, sl.at.Load(), sl.m.data)
					}
				}
			}
		}
	}
	if msgs, bytes := mb.totals(); msgs != 0 || bytes != 0 {
		t.Fatalf("counters survived reset: %d msgs %d bytes", msgs, bytes)
	}
}

// atGOMAXPROCS runs body as a subtest per processor count, restoring the
// previous setting afterwards. Spin eligibility is decided when a mailbox
// is made, so each subtest builds its worlds inside body.
func atGOMAXPROCS(t *testing.T, counts []int, body func(t *testing.T)) {
	for _, c := range counts {
		t.Run(fmt.Sprintf("gomaxprocs=%d", c), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c))
			body(t)
		})
	}
}

// stressRanks runs one goroutine per rank and fails the test when they
// have not all returned within the deadline: a wake-up lost between the
// spin and the park shows as a rank blocked forever on a non-empty queue.
func stressRanks(t *testing.T, mb *mailbox, rank func(r int) error) {
	t.Helper()
	errs := make(chan error, mb.n)
	for r := 0; r < mb.n; r++ {
		go func() { errs <- rank(r) }()
	}
	deadline := time.After(2 * time.Minute)
	for r := 0; r < mb.n; r++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			var state []string
			for d := range mb.f.inboxes {
				ib := &mb.f.inboxes[d]
				state = append(state, fmt.Sprintf("inbox %d: arrivals %d waiting %v parks %d", d, ib.arrivals.Load(), ib.waiting.Load(), ib.parks))
			}
			t.Fatalf("ranks still blocked after 2m (lost wake-up?): %s", strings.Join(state, "; "))
		}
	}
}

// compute burns a pseudo-random 0–50 µs of arithmetic, so consecutive
// receives land before, inside and after the peer's spin phase.
func compute(rng *rand.Rand, sink *float64) {
	x := *sink
	for i := rng.Intn(12000); i > 0; i-- {
		x = x*0.999999 + 1e-6
	}
	*sink = x
}

// stressMessages is the traffic of one stress world.
func stressMessages() int {
	if testing.Short() {
		return 10_000
	}
	return 100_000
}

// TestNoLostWakeupTargetedPop: two ranks exchange sequence-numbered
// messages through targeted pops with random compute in between, at
// processor counts where the world spins (2, 4) and where it parks at
// once (1). Every message must arrive, in order, and no rank may hang.
func TestNoLostWakeupTargetedPop(t *testing.T) {
	atGOMAXPROCS(t, []int{1, 2, 4}, func(t *testing.T) {
		mb := newMailbox(context.Background(), 2, true)
		rounds := stressMessages() / 2
		stressRanks(t, mb, func(r int) error {
			rng := rand.New(rand.NewSource(int64(r) + 1))
			var sink float64
			for i := 0; i < rounds; i++ {
				compute(rng, &sink)
				mb.push(r, 1-r, message{tag: 9, data: i})
				if got := mb.pop(1-r, r, 9).data.(int); got != i {
					return fmt.Errorf("rank %d round %d: got message %d", r, i, got)
				}
			}
			return nil
		})
		mb.release()
	})
}

// TestNoLostWakeupPopAny: four ranks, each round sending one message to
// every other rank and then taking three from any source. Per-pair FIFO
// must hold and every rank must drain exactly what was sent to it.
func TestNoLostWakeupPopAny(t *testing.T) {
	atGOMAXPROCS(t, []int{1, 2, 4}, func(t *testing.T) {
		const n = 4
		mb := newMailbox(context.Background(), n, true)
		rounds := stressMessages() / (n * (n - 1))
		stressRanks(t, mb, func(r int) error {
			rng := rand.New(rand.NewSource(int64(r) + 1))
			var sink float64
			var next [n]int
			for i := 0; i < rounds; i++ {
				compute(rng, &sink)
				for d := 0; d < n; d++ {
					if d != r {
						mb.push(r, d, message{tag: 9, data: i})
					}
				}
				for k := 0; k < n-1; k++ {
					src, msg := mb.popAny(r, 9)
					if got := msg.data.(int); got != next[src] {
						return fmt.Errorf("rank %d: message %d from %d, want %d", r, got, src, next[src])
					}
					next[src]++
				}
			}
			return nil
		})
		for d := range mb.f.inboxes {
			if src, m, ok := mb.f.inboxes[d].PopAny(); ok {
				t.Errorf("inbox %d left message %v from %d undrained", d, m.data, src)
			}
		}
		mb.release()
	})
}

// TestSpinEligibility pins the rule: a world spins exactly when its
// transport is wall-clock and it fits its processors, decided once when
// its mailbox is made.
func TestSpinEligibility(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		procs, n  int
		wallClock bool
		want      int
	}{
		{2, 1, true, spinYields}, {2, 2, true, spinYields},
		{2, 3, true, 0}, {2, 4, true, 0}, {2, 64, true, 0},
		{2, 2, false, 0}, {1, 2, true, 0},
	} {
		runtime.GOMAXPROCS(c.procs)
		mb := newMailbox(context.Background(), c.n, c.wallClock)
		if mb.spin != c.want {
			t.Errorf("GOMAXPROCS=%d, world of %d, wall clock %v: spin budget %d, want %d", c.procs, c.n, c.wallClock, mb.spin, c.want)
		}
		mb.release()
	}
	// The transports pass their half of the rule.
	for procs, want := range map[int]int{1: 0, 2: spinYields} {
		runtime.GOMAXPROCS(procs)
		rtr, _ := Real().NewTransport(context.Background(), 2, nil)
		str, _ := Sim().NewTransport(context.Background(), 2, nil)
		rt, st := rtr.(*realTransport), str.(*simTransport)
		if rt.spin != want || st.spin != 0 {
			t.Errorf("GOMAXPROCS=%d: real spin %d, sim spin %d, want %d and 0", procs, rt.spin, st.spin, want)
		}
		rt.Finish()
		st.Finish()
	}
}

// blockedPop starts a consumer popping from rank 0's empty inbox and
// returns a channel that yields its message, or the value it panicked
// with.
func blockedPop(mb *mailbox, anySrc bool) <-chan any {
	out := make(chan any, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- r
			}
		}()
		if anySrc {
			_, msg := mb.popAny(0, 1)
			out <- msg.data
		} else {
			out <- mb.pop(1, 0, 1).data
		}
	}()
	return out
}

// TestOversizedWorldParksAtOnce: in a world larger than its processors a
// consumer that finds its queue empty goes straight to the park — the
// first thing the test can observe is it asleep in wake.Wait — and the
// park is counted and reaches a traced run's summary.
func TestOversizedWorldParksAtOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	mb := newMailbox(context.Background(), 4, true)
	got := blockedPop(mb, false)
	buf := make([]byte, 1<<20)
	for !parkedInWait(buf[:runtime.Stack(buf, true)]) {
		runtime.Gosched()
	}
	mb.push(1, 0, message{tag: 1, data: "late"})
	if v := <-got; v != "late" {
		t.Fatalf("parked pop returned %v", v)
	}
	rec := obs.NewRecorder(4, "real")
	mb.reportParks(rec)
	for _, rs := range rec.Summary().Ranks {
		if want := map[int]int64{0: 1}[rs.Rank]; rs.Parks != want {
			t.Errorf("rank %d: %d parks in the summary, want %d", rs.Rank, rs.Parks, want)
		}
	}
	mb.release()
}

// parkedInWait reports whether a goroutine dump shows one goroutine asleep
// on a cond inside mailbox.wait.
func parkedInWait(dump []byte) bool {
	for _, g := range strings.Split(string(dump), "\n\n") {
		if strings.Contains(g, "[sync.Cond.Wait") && strings.Contains(g, "(*mailbox).wait") {
			return true
		}
	}
	return false
}

// TestSpinCatchesArrivalWithoutParking: with the budget made endless the
// consumer can only be in the spin phase, so a push must be noticed
// through the arrival counter alone — nobody signals a spinner.
func TestSpinCatchesArrivalWithoutParking(t *testing.T) {
	for _, anySrc := range []bool{false, true} {
		mb := newMailbox(context.Background(), 2, true)
		mb.spin = math.MaxInt
		got := blockedPop(mb, anySrc)
		time.Sleep(time.Millisecond) // let it reach the spin; either order must work
		mb.push(1, 0, message{tag: 1, data: "caught"})
		if v := <-got; v != "caught" {
			t.Fatalf("popAny=%v: spinning consumer returned %v", anySrc, v)
		}
		if p := mb.f.inboxes[0].parks; p != 0 {
			t.Fatalf("popAny=%v: consumer parked %d times with an endless spin budget", anySrc, p)
		}
		mb.release()
	}
}

// TestCancellationWhileSpinning: a consumer held in the spin phase must
// unwind with the cancellation sentinel as soon as the run context is
// cancelled, and release must still hand a clean fabric to the pool.
func TestCancellationWhileSpinning(t *testing.T) {
	for _, anySrc := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		mb := newMailbox(ctx, 2, true)
		mb.spin = math.MaxInt
		mb.push(0, 1, message{tag: 1, data: "undrained"})
		got := blockedPop(mb, anySrc)
		time.Sleep(time.Millisecond) // let it reach the spin; either order must work
		cancel()
		select {
		case r := <-got:
			if err, ok := AsCanceled(r); !ok || err != context.Canceled {
				t.Fatalf("popAny=%v: spinning consumer unwound with %v, want the canceled sentinel", anySrc, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("popAny=%v: spinning consumer did not unwind on cancellation", anySrc)
		}
		f := mb.f
		mb.release()
		for d := range f.inboxes {
			ib := &f.inboxes[d]
			if ib.arrivals.Load() != 0 || ib.parks != 0 || ib.ready(-1) || ib.waiting.Load() {
				t.Fatalf("popAny=%v: inbox %d pooled dirty: arrivals %d parks %d ready %v waiting %v",
					anySrc, d, ib.arrivals.Load(), ib.parks, ib.ready(-1), ib.waiting.Load())
			}
		}
	}
}

// BenchmarkRecvAny is the any-source pop from an inbox with P−1 non-empty
// sources: each pop's source queues a message again at once, as if P−1
// producers each kept one queued for the consumer. An op is one pop plus
// that refill push.
func BenchmarkRecvAny(b *testing.B) {
	for _, p := range []int{4, 64, 256} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			mb := newMailbox(context.Background(), p, false)
			defer mb.release()
			for src := 1; src < p; src++ {
				mb.push(src, 0, message{tag: 1, data: src})
			}
			b.ResetTimer()
			for range b.N {
				src, m := mb.popAny(0, 1)
				mb.push(src, 0, m)
			}
		})
	}
}

// TestInboxFillsCacheLines: an inbox is a whole number of cache lines, so
// neighbouring ranks' inboxes in the fabric's array never share one (two
// ranks would otherwise contend on a line at every message).
func TestInboxFillsCacheLines(t *testing.T) {
	if size := unsafe.Sizeof(inbox{}); size%64 != 0 {
		t.Fatalf("inbox is %d bytes, not a multiple of a 64-byte cache line", size)
	}
}
