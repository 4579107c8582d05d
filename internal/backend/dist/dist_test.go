package dist_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/collective"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// TestMain lets this test binary serve as its own dist worker: the
// backend's default mode self-spawns the current binary, and MaybeWorker
// diverts those child processes into the worker loop before any test
// runs.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

func runOn(t *testing.T, r backend.Runner, n int, body func(p *spmd.Proc)) (*spmd.Result, error) {
	t.Helper()
	w, err := spmd.NewWorldOn(context.Background(), r, n, machine.IBMSP())
	if err != nil {
		t.Fatalf("NewWorldOn: %v", err)
	}
	return w.Run(body)
}

// TestDistRegistered pins the registry entry the arch facade resolves.
func TestDistRegistered(t *testing.T) {
	r, ok := backend.ByName("dist")
	if !ok {
		t.Fatal(`backend "dist" not registered`)
	}
	if r.Virtual() {
		t.Error("dist must be a wall-clock backend")
	}
}

// TestDistExchange runs a ring exchange plus collectives across worker
// processes and checks results and meters against the real backend: the
// communication volume must be identical, only the substrate differs.
func TestDistExchange(t *testing.T) {
	const n = 4
	prog := func(sums []float64) func(p *spmd.Proc) {
		return func(p *spmd.Proc) {
			rank := p.Rank()
			next, prev := (rank+1)%n, (rank+n-1)%n
			spmd.SendT(p, next, 7, []float64{float64(rank), float64(rank * rank)})
			got := spmd.Recv[[]float64](p, prev, 7)
			if got[0] != float64(prev) || got[1] != float64(prev*prev) {
				panic(fmt.Sprintf("rank %d: bad ring payload %v", rank, got))
			}
			// Self-send exercises the local short-circuit path.
			p.Send(rank, 9, int32(rank))
			if v := spmd.Recv[int32](p, rank, 9); v != int32(rank) {
				panic("self-send corrupted")
			}
			sum := collective.AllReduce(p, float64(rank+1), func(a, b float64) float64 { return a + b })
			sums[rank] = sum
		}
	}

	distSums := make([]float64, n)
	distRes, err := runOn(t, dist.New(), n, prog(distSums))
	if err != nil {
		t.Fatalf("dist run: %v", err)
	}
	realSums := make([]float64, n)
	realRes, err := runOn(t, backend.Real(), n, prog(realSums))
	if err != nil {
		t.Fatalf("real run: %v", err)
	}
	for rank, sum := range distSums {
		if sum != 10 {
			t.Errorf("rank %d: allreduce sum = %g, want 10", rank, sum)
		}
		if sum != realSums[rank] {
			t.Errorf("rank %d: dist %g != real %g", rank, sum, realSums[rank])
		}
	}
	if distRes.Msgs != realRes.Msgs || distRes.Bytes != realRes.Bytes {
		t.Errorf("meters differ: dist %d msgs/%d bytes, real %d msgs/%d bytes",
			distRes.Msgs, distRes.Bytes, realRes.Msgs, realRes.Bytes)
	}
	if distRes.Makespan <= 0 {
		t.Errorf("dist makespan = %g, want positive wall-clock", distRes.Makespan)
	}
}

// TestDistRecvAny checks cross-source receives: rank 0 collects one
// tagged message from every other rank, in whatever order they arrive.
func TestDistRecvAny(t *testing.T) {
	const n = 4
	got := make([]bool, n)
	_, err := runOn(t, dist.New(), n, func(p *spmd.Proc) {
		if p.Rank() != 0 {
			spmd.SendT(p, 0, 3, p.Rank())
			return
		}
		for i := 1; i < n; i++ {
			src, v := p.RecvAny(3)
			if v.(int) != src {
				panic(fmt.Sprintf("payload %v from %d", v, src))
			}
			got[src] = true
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for src := 1; src < n; src++ {
		if !got[src] {
			t.Errorf("no message received from rank %d", src)
		}
	}
}

// TestDistCancellation pins the unwinding contract: cancelling the run's
// context must release ranks blocked in cross-process receives and
// return the context's error, exactly like the in-process mailbox
// sentinel path.
func TestDistCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w, err := spmd.NewWorldOn(ctx, dist.New(), 2, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(300 * time.Millisecond)
		cancel()
	}()
	done := make(chan error, 1)
	go func() {
		_, err := w.Run(func(p *spmd.Proc) {
			p.Recv((p.Rank()+1)%2, 1) // nobody sends: blocks until cancelled
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled dist run did not unwind")
	}
}

// liveChildren lists this process's live child PIDs (Linux); ok reports
// whether the kernel exposes the listing. The children files are
// per-thread and the runtime forks from arbitrary threads, so every
// task's listing is gathered.
func liveChildren() (pids []string, ok bool) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return nil, false
	}
	for _, task := range tasks {
		blob, err := os.ReadFile("/proc/self/task/" + task.Name() + "/children")
		if err != nil {
			continue
		}
		pids = append(pids, strings.Fields(string(blob))...)
	}
	sort.Strings(pids)
	return pids, true
}

// childrenSince returns the live child PIDs that are not in before: the
// workers a test spawned, apart from pooled ones that earlier tests (or
// earlier -count iterations) left running for the life of the binary.
func childrenSince(before []string) []string {
	now, _ := liveChildren()
	old := make(map[string]bool, len(before))
	for _, pid := range before {
		old[pid] = true
	}
	var fresh []string
	for _, pid := range now {
		if !old[pid] {
			fresh = append(fresh, pid)
		}
	}
	return fresh
}

// TestDistCancellationReapsWorkers pins the teardown half of the
// cancellation contract: when a mid-run cancellation unwinds the world,
// Run must not return until the spawned worker processes are killed and
// reaped and the coordinator's service goroutines (accept loop, per-rank
// readers, process monitors) have exited. Run under -race, a leak shows
// up as the goroutine count never settling.
func TestDistCancellationReapsWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	children, _ := liveChildren()
	ctx, cancel := context.WithCancel(context.Background())
	w, err := spmd.NewWorldOn(ctx, dist.New(), 4, machine.IBMSP())
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(200 * time.Millisecond)
		cancel()
	}()
	_, err = w.Run(func(p *spmd.Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 1) // rank 1 never sends: blocks until cancelled
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// Workers reaped: Run's return implies teardown killed and waited the
	// spawned processes, so none may survive as children (zombies included
	// — a reaped child leaves the kernel's children listing).
	if pids := childrenSince(children); len(pids) > 0 {
		t.Errorf("worker processes survived cancellation: pids %v", pids)
	}
	// No goroutine leak: everything the run started winds down (the
	// runtime needs a moment to retire exiting goroutines).
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for ; n > before+1 && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if n > before+1 {
		t.Errorf("goroutines leaked after cancelled run: %d before, %d after", before, n)
	}
}

// TestDistFaultInjection exercises the injection point after each
// completed rank operation: Delay perturbs timing without changing
// results, and Drop severs a rank's control connection mid-run, which
// must surface through the ordinary lost-worker path as a run error, not
// a hang.
func TestDistFaultInjection(t *testing.T) {
	const n = 2
	ring := func(p *spmd.Proc) {
		rank := p.Rank()
		spmd.SendT(p, (rank+1)%n, 5, rank)
		if got := spmd.Recv[int](p, (rank+1)%n, 5); got != (rank+1)%n {
			panic(fmt.Sprintf("rank %d: bad payload %d", rank, got))
		}
	}

	delay := faultinject.New(faultinject.Rule{
		Point: "dist.op", Rank: faultinject.AnyRank, Epoch: faultinject.AnyEpoch,
		Count: 2, Action: faultinject.Delay, Delay: 5 * time.Millisecond,
	})
	if _, err := runOn(t, dist.New(dist.WithInjector(delay)), n, ring); err != nil {
		t.Fatalf("run with injected delays: %v", err)
	}
	if got := delay.Fired("dist.op"); got != 2 {
		t.Errorf("delay rule fired %d times, want 2", got)
	}

	drop := faultinject.New(faultinject.Rule{
		Point: "dist.op", Rank: 1, Epoch: 0, Action: faultinject.Drop,
	})
	done := make(chan error, 1)
	go func() {
		w, err := spmd.NewWorldOn(context.Background(), dist.New(dist.WithInjector(drop)), n, machine.IBMSP())
		if err != nil {
			done <- err
			return
		}
		_, err = w.Run(ring)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a dropped control connection returned nil error")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a dropped control connection hung")
	}
	if got := drop.Fired("dist.op"); got != 1 {
		t.Errorf("drop rule fired %d times, want 1", got)
	}
}

// TestDistCrashedWorker is the crash-hardening regression: killing one
// worker process mid-run must surface as a run error on every rank —
// including ranks blocked waiting for the dead rank's messages — not as
// a hang.
func TestDistCrashedWorker(t *testing.T) {
	t.Setenv("ARCHDIST_CRASH_RANK", "1") // worker for rank 1 dies on its first send
	const n = 4
	done := make(chan error, 1)
	go func() {
		_, err := runOn(t, dist.New(), n, func(p *spmd.Proc) {
			rank := p.Rank()
			spmd.SendT(p, (rank+1)%n, 5, rank)
			spmd.Recv[int](p, (rank+n-1)%n, 5)
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a crashed worker returned nil error")
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("crash surfaced as cancellation, want a worker failure: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a crashed worker hung")
	}
}

// TestDistAttach exercises attach mode: workers pre-started on their own
// listeners (cmd/archworker's loop, run in-process here), a coordinator
// that dials instead of spawning.
func TestDistAttach(t *testing.T) {
	const n = 3
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
		go dist.Serve(ln) //nolint:errcheck // ends when the listener closes
	}
	var got int
	res, err := runOn(t, dist.New(dist.WithWorkers(addrs...)), n, func(p *spmd.Proc) {
		v := collective.Reduce(p, 0, p.Rank()+1, func(a, b int) int { return a + b })
		if p.Rank() == 0 {
			got = v
		}
	})
	if err != nil {
		t.Fatalf("attach run: %v", err)
	}
	if got != 6 {
		t.Errorf("reduce = %d, want 6", got)
	}
	if res.Msgs != n-1 {
		t.Errorf("msgs = %d, want %d", res.Msgs, n-1)
	}
}

// TestDistStartFailures pins that unstartable worlds report errors
// instead of hanging or half-running.
func TestDistStartFailures(t *testing.T) {
	t.Run("too-few-attached-workers", func(t *testing.T) {
		_, err := runOn(t, dist.New(dist.WithWorkers("127.0.0.1:1")), 2, func(p *spmd.Proc) {
			p.Charge(0)
		})
		if err == nil || !strings.Contains(err.Error(), "world start") {
			t.Fatalf("err = %v, want world start error", err)
		}
	})
}

// TestDistPushBeforeRecv pins the eager-push inbox contract: deliveries
// that arrive before the destination ever calls Recv for them are banked
// in the rank's inbox and later popped in per-pair FIFO order. Rank 0
// fires a sequenced burst at rank 1 and then a marker at rank 2, which
// relays it to rank 1; rank 1 blocks on the relay first — so the burst
// arrives while it waits on a different pair and goes through the banked
// path, not the direct-consume fast path — then drains the burst and
// checks the sequence survived intact. (The marker must ride another
// pair: tags are order checks over the per-pair FIFO, so a same-pair
// marker would be a protocol violation, not a reordering probe.)
func TestDistPushBeforeRecv(t *testing.T) {
	const burst = 48
	_, err := runOn(t, dist.New(), 3, func(p *spmd.Proc) {
		switch p.Rank() {
		case 0:
			for i := 0; i < burst; i++ {
				spmd.SendT(p, 1, 4, i)
			}
			spmd.SendT(p, 2, 5, -1)
		case 2:
			spmd.SendT(p, 1, 5, spmd.Recv[int](p, 0, 5))
		case 1:
			if v := spmd.Recv[int](p, 2, 5); v != -1 {
				panic(fmt.Sprintf("marker payload %d", v))
			}
			for i := 0; i < burst; i++ {
				if v := spmd.Recv[int](p, 0, 4); v != i {
					panic(fmt.Sprintf("burst out of order: got %d at position %d", v, i))
				}
			}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestDistRecvAnyFIFOPerSource pins inbox fairness for cross-source
// receives: whatever interleaving RecvAny observes across senders, each
// individual sender's messages must arrive in send order — per-pair FIFO
// survives the eager-push inbox, exactly as on the in-process backends.
func TestDistRecvAnyFIFOPerSource(t *testing.T) {
	const n, k = 4, 8
	_, err := runOn(t, dist.New(), n, func(p *spmd.Proc) {
		if p.Rank() != 0 {
			for i := 0; i < k; i++ {
				spmd.SendT(p, 0, 2, i)
			}
			return
		}
		next := make([]int, n)
		for i := 0; i < (n-1)*k; i++ {
			src, v := p.RecvAny(2)
			if got := v.(int); got != next[src] {
				panic(fmt.Sprintf("source %d out of order: got seq %d, want %d", src, got, next[src]))
			}
			next[src]++
		}
		for src := 1; src < n; src++ {
			if next[src] != k {
				panic(fmt.Sprintf("source %d delivered %d of %d messages", src, next[src], k))
			}
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestDistCrashMidPush kills a worker with bulk traffic in flight around
// it: every rank bursts 1 MiB blocks at every other rank before its
// first receive, and rank 1's worker dies on the first block that reaches
// it — so peers are mid-write toward a dead process (the Send error
// path), other workers hold deliveries their ranks have not read yet,
// and rank 1 waits for pushes that will never come. The world must fail
// with a worker error — not hang, and not masquerade as a cancellation.
// (TestDistCrashedWorker is the same hook under one-word messages, where
// the failure is only ever seen by blocked receives.)
func TestDistCrashMidPush(t *testing.T) {
	t.Setenv("ARCHDIST_CRASH_RANK", "1")
	const n = 4
	done := make(chan error, 1)
	go func() {
		_, err := runOn(t, dist.New(), n, func(p *spmd.Proc) {
			block := make([]float64, 1<<17)
			for d := 1; d < n; d++ {
				spmd.SendT(p, (p.Rank()+d)%n, 5, block)
			}
			for d := 1; d < n; d++ {
				spmd.Recv[[]float64](p, (p.Rank()+n-d)%n, 5)
			}
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with a worker killed mid-push returned nil error")
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("mid-push crash surfaced as cancellation, want a worker failure: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("run with a worker killed mid-push hung")
	}
}

// TestDistWorkerPoolReuse pins the pooling contract observably: with
// WithWorkerPool, a second world on the same runner reuses the first
// world's worker processes instead of spawning fresh ones.
func TestDistWorkerPoolReuse(t *testing.T) {
	children, ok := liveChildren()
	if !ok {
		t.Skip("kernel does not expose the children listing")
	}
	r := dist.New(dist.WithWorkerPool())
	run := func() {
		if _, err := runOn(t, r, 2, func(p *spmd.Proc) {
			peer := 1 - p.Rank()
			spmd.SendT(p, peer, 1, p.Rank())
			spmd.Recv[int](p, peer, 1)
		}); err != nil {
			t.Fatalf("pooled run: %v", err)
		}
	}
	run()
	first := childrenSince(children)
	if len(first) != 2 {
		t.Fatalf("after first pooled world: %d live workers, want 2 pooled", len(first))
	}
	run()
	second := childrenSince(children)
	if fmt.Sprint(first) != fmt.Sprint(second) {
		t.Errorf("second world changed the worker set: %v -> %v, want reuse", first, second)
	}
}

// block is an app-style Sized wrapper type: header fields and an inner
// payload, priced through BytesOf.
type block struct {
	X0, X1 int
	Data   []float64
}

func (b block) VBytes() int { return 16 + spmd.BytesOf(b.Data) }

// TestDistSizedPayloads sends an app-style Sized wrapper type through the
// reflection fallback of the wire codec, across real process boundaries.
func TestDistSizedPayloads(t *testing.T) {
	const n = 2
	_, err := runOn(t, dist.New(), n, func(p *spmd.Proc) {
		if p.Rank() == 0 {
			spmd.SendT(p, 1, 11, block{X0: 2, X1: 5, Data: []float64{1.5, 2.5, 3.5}})
			return
		}
		b := spmd.Recv[block](p, 0, 11)
		if b.X0 != 2 || b.X1 != 5 || len(b.Data) != 3 || b.Data[2] != 3.5 {
			panic(fmt.Sprintf("corrupted block %+v", b))
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// listenWorkers starts k in-process workers (cmd/archworker's loop) on
// loopback listeners, each handed through wrap, and returns their
// addresses; the listeners close with the test.
func listenWorkers(t *testing.T, k int, wrap func(net.Listener) net.Listener) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs[i] = ln.Addr().String()
		go dist.Serve(wrap(ln)) //nolint:errcheck // ends when the listener closes
	}
	return addrs
}

// silentListener hands its worker connections on which the worker's hello
// and ready (one write each) reach the coordinator and nothing after them
// does: the wedged-worker failure mode TCP cannot report, where the
// connection stays open and the worker reads on, but no delivery or pong
// ever comes back.
type silentListener struct{ net.Listener }

func (l silentListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &silentConn{Conn: c}, nil
}

type silentConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *silentConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) > 2 {
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestDistSilentWorkerFailsTheRun pins liveness under the fail-fast
// policy: rank 0's worker handshakes and then never echoes, so rank 0
// waits on a message that never comes back. Pings go unanswered too, and
// the run must fail within interval × misses (plus slack) with an error
// naming rank 0, instead of hanging.
func TestDistSilentWorkerFailsTheRun(t *testing.T) {
	const interval, misses = 50 * time.Millisecond, 3
	silent := listenWorkers(t, 1, func(ln net.Listener) net.Listener { return silentListener{ln} })
	live := listenWorkers(t, 1, func(ln net.Listener) net.Listener { return ln })
	r := dist.New(dist.WithWorkers(silent[0], live[0]), dist.WithHeartbeat(interval, misses))
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		w, err := spmd.NewWorldOn(context.Background(), r, 2, machine.IBMSP())
		if err == nil {
			_, err = w.Run(func(p *spmd.Proc) {
				peer := 1 - p.Rank()
				spmd.SendT(p, peer, 1, p.Rank())
				spmd.Recv[int](p, peer, 1)
			})
		}
		done <- err
	}()
	limit := interval*misses + 5*time.Second
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "rank 0") {
			t.Fatalf("err = %v, want a lost-worker error naming rank 0", err)
		}
		if took := time.Since(start); took > limit {
			t.Errorf("silent worker detected after %v, want within %v", took, limit)
		}
	case <-time.After(2 * limit):
		t.Fatal("run with a silent worker hung")
	}
}

// TestRankEndsOnBufferedSend pins the flush Drive owes a finished rank:
// a body whose last act is a send never reaches another flush point, so
// the frame must go on the wire when the body returns. Rank 1 is already
// blocked reading when rank 0 sends, and the heartbeat is an hour, so no
// ping flushes the writer on the rank's behalf.
func TestRankEndsOnBufferedSend(t *testing.T) {
	r := dist.New(dist.WithHeartbeat(time.Hour, 1))
	done := make(chan error, 1)
	go func() {
		w, err := spmd.NewWorldOn(context.Background(), r, 2, machine.IBMSP())
		if err == nil {
			_, err = w.Run(func(p *spmd.Proc) {
				if p.Rank() == 0 {
					time.Sleep(100 * time.Millisecond)
					spmd.SendT(p, 1, 1, 42)
					return
				}
				if v := spmd.Recv[int](p, 0, 1); v != 42 {
					panic(fmt.Sprintf("payload %d", v))
				}
			})
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a send that ended its rank's body never reached the wire")
	}
}
