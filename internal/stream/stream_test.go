package stream_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
	"repro/internal/stream"
)

// countingPipeline is the test workload: int64-ish floats through a
// doubling farm, with the source counting every element it generates so
// tests can observe how far ahead of the sink it ran.
func countingPipeline(workers int, produced *atomic.Int64) *stream.Pipeline[float64] {
	return &stream.Pipeline[float64]{
		Name:  "count",
		Width: 1,
		Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
			if produced != nil {
				produced.Add(int64(n))
			}
			return iota64(first, n, dst)
		},
		Stages: []stream.Stage[float64]{{
			Name:    "double",
			Workers: workers,
			Fn: func(c spmd.Comm, _ any, in []float64) []float64 {
				for k := range in {
					in[k] *= 2
				}
				return in
			},
		}},
	}
}

// iota64 appends first, first+1, … (n values) to dst: the element
// generator every scalar test source shares.
func iota64(first int64, n int, dst []float64) []float64 {
	for i := first; i < first+int64(n); i++ {
		dst = append(dst, float64(i))
	}
	return dst
}

// TestOrderRestoration: a farm of any width must deliver the stream to
// the sink in exact global element order, whatever the batch size —
// including batches that don't divide the element count.
func TestOrderRestoration(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 5} {
		for _, batch := range []int{1, 7, 32} {
			pl := countingPipeline(workers, nil)
			cfg := stream.Config{Elems: 1000, Batch: batch, Credits: 2}
			var out []float64
			_, err := core.Run(context.Background(), backend.Real(), pl.Procs(), model(), func(p *spmd.Proc) {
				if res := stream.Run(p, pl, cfg); res != nil {
					out = flat(res)
				}
			})
			if err != nil {
				t.Fatalf("w=%d b=%d: %v", workers, batch, err)
			}
			if len(out) != 1000 {
				t.Fatalf("w=%d b=%d: sink got %d elems, want 1000", workers, batch, len(out))
			}
			for i, v := range out {
				if v != float64(2*i) {
					t.Fatalf("w=%d b=%d: out[%d] = %g, want %d (order not restored)", workers, batch, i, v, 2*i)
				}
			}
		}
	}
}

// TestStagesReshapeStream: a cardinality-changing stateful stage
// (pairwise sum, half the elements, width change) composed after a farm
// keeps exact semantics, with Flush emitting the buffered tail.
func TestStagesReshapeStream(t *testing.T) {
	// Stage 2 sums non-overlapping pairs into 2-wide elements
	// (sum, count), carrying an odd leftover across batches in state and
	// flushing it at end of stream.
	type carry struct {
		have bool
		val  float64
	}
	pl := &stream.Pipeline[float64]{
		Name:  "reshape",
		Width: 1,
		Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
			return iota64(first, n, dst)
		},
		Stages: []stream.Stage[float64]{
			{
				Name:    "inc",
				Workers: 3,
				Fn: func(c spmd.Comm, _ any, in []float64) []float64 {
					for k := range in {
						in[k]++
					}
					return in
				},
			},
			{
				Name:     "pairs",
				OutWidth: 2,
				State:    func(c spmd.Comm) any { return &carry{} },
				Fn: func(c spmd.Comm, state any, in []float64) []float64 {
					st := state.(*carry)
					var out []float64
					for _, v := range in {
						if st.have {
							out = append(out, st.val+v, 2)
							st.have = false
						} else {
							st.val, st.have = v, true
						}
					}
					return out
				},
				Flush: func(c spmd.Comm, state any) []float64 {
					st := state.(*carry)
					if !st.have {
						return nil
					}
					return []float64{st.val, 1}
				},
			},
		},
	}
	if got, want := pl.OutWidth(), 2; got != want {
		t.Fatalf("OutWidth = %d, want %d", got, want)
	}
	const elems = 101 // odd: exercises the flush path
	cfg := stream.Config{Elems: elems, Batch: 7, Credits: 3}
	var out []float64
	_, err := core.Run(context.Background(), backend.Real(), pl.Procs(), model(), func(p *spmd.Proc) {
		if res := stream.Run(p, pl, cfg); res != nil {
			out = flat(res)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != (elems/2)*2+2 {
		t.Fatalf("sink got %d scalars, want %d", len(out), (elems/2)*2+2)
	}
	for k := 0; k < elems/2; k++ {
		// Pair k sums elements 2k and 2k+1, each incremented by one.
		if want := float64(2*k+1) + float64(2*k+2); out[2*k] != want || out[2*k+1] != 2 {
			t.Fatalf("pair %d = (%g, %g), want (%g, 2)", k, out[2*k], out[2*k+1], want)
		}
	}
	if out[len(out)-2] != float64(elems) || out[len(out)-1] != 1 {
		t.Fatalf("flushed tail = (%g, %g), want (%d, 1)", out[len(out)-2], out[len(out)-1], elems)
	}
}

func model() *machine.Model { return machine.IBMSP() }

// TestBackpressureStallsSource is the bounded-buffer invariant: with the
// sink withholding acknowledgements (a blocking OnWindow), the source
// must stop producing once every credit window in the pipeline is full —
// at most (S+1)·Credits + S+1 elements at batch size 1 — instead of
// running ahead through the unbounded fabric.
func TestBackpressureStallsSource(t *testing.T) {
	const credits = 2
	const elems = 500
	bound := int64(2*credits + 2) // S=1 stage: (S+1)*credits + S+1

	var produced atomic.Int64
	pl := countingPipeline(1, &produced)
	release := make(chan struct{})
	var windows atomic.Int64
	cfg := stream.Config{
		Elems: elems, Batch: 1, Credits: credits,
		Window: 1,
		OnWindow: func(w stream.Window) {
			if windows.Add(1) == 1 {
				<-release // stall the sink on its first window
			}
		},
	}
	var out []float64
	done := make(chan error, 1)
	go func() {
		_, err := core.Run(context.Background(), backend.Real(), pl.Procs(), model(), func(p *spmd.Proc) {
			if res := stream.Run(p, pl, cfg); res != nil {
				out = flat(res)
			}
		})
		done <- err
	}()

	// Give the stalled pipeline ample time to overrun the bound if it
	// were going to (an unbounded pipeline drains 500 elements in well
	// under a millisecond here).
	time.Sleep(200 * time.Millisecond)
	if got := produced.Load(); got > bound {
		t.Errorf("stalled sink: source produced %d elements, bound is %d", got, bound)
	} else if got == elems {
		t.Errorf("source finished all %d elements against a stalled sink", elems)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if produced.Load() != elems {
		t.Errorf("after release: produced %d, want %d", produced.Load(), elems)
	}
	if len(out) != elems {
		t.Fatalf("sink got %d elems, want %d", len(out), elems)
	}
	for i, v := range out {
		if v != float64(2*i) {
			t.Fatalf("out[%d] = %g, want %d after stall/release", i, v, 2*i)
		}
	}
}

// TestStagesOverlap: stages run concurrently on different batches. With
// every stage charging a fixed compute time per batch on the simulator,
// B batches through S stages take about (B+S−1) stage times — the
// pipeline fills, then one batch leaves per stage time — not the B·S of
// stages taking turns. That holds at a credit window of one batch too:
// a consumer returns its credit once it has sent the batch on, so the
// protocol has no lockstep setting; B·S is only the reference.
func TestStagesOverlap(t *testing.T) {
	const stages, batches, perBatch = 3, 16, 1e-3
	pl := &stream.Pipeline[float64]{
		Name:  "overlap",
		Width: 1,
		Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
			return iota64(first, n, dst)
		},
	}
	for s := range stages {
		pl.Stages = append(pl.Stages, stream.Stage[float64]{
			Name: fmt.Sprint("stage", s),
			Fn: func(c spmd.Comm, _ any, in []float64) []float64 {
				c.Charge(perBatch)
				return in
			},
		})
	}
	fill, lockstep := float64(batches+stages-1)*perBatch, float64(batches*stages)*perBatch
	for _, credits := range []int{1, 4} {
		cfg := stream.Config{Elems: batches, Batch: 1, Credits: credits}
		res, err := core.Simulate(pl.Procs(), model(), func(p *spmd.Proc) { stream.Run(p, pl, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("credits %d: makespan %.3f ms", credits, res.Makespan*1e3)
		if res.Makespan < fill || res.Makespan > lockstep/2 {
			t.Errorf("credits %d: makespan %.2f ms, want between the pipelined %.0f ms and half the lockstep %.0f ms",
				credits, res.Makespan*1e3, fill*1e3, lockstep*1e3)
		}
	}
}

// TestCancelMidStream: cancelling the world's context while elements
// are in flight unwinds every rank — source, farm workers, sink — with
// no goroutine leaks and a prompt context.Canceled from the run.
func TestCancelMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	var produced atomic.Int64
	pl := countingPipeline(3, &produced)
	cfg := stream.Config{Elems: 1 << 40, Batch: 4, Credits: 2} // far more than any test will stream
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := core.Run(ctx, backend.Real(), pl.Procs(), model(), func(p *spmd.Proc) {
		stream.Run(p, pl, cfg)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run after cancel = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}
	if produced.Load() == 0 {
		t.Error("cancelled before any element flowed; test proved nothing")
	}
	limit := time.Now().Add(2 * time.Second)
	n := runtime.NumGoroutine()
	for n > before+1 && time.Now().Before(limit) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > before+1 {
		t.Errorf("goroutines leaked after cancel: %d before, %d after", before, n)
	}
}

// TestSplitWorkers pins the even-split-with-extras-first rule and the
// too-few-ranks panic.
func TestSplitWorkers(t *testing.T) {
	cases := []struct {
		avail, stages int
		want          []int
	}{
		{2, 2, []int{1, 1}},
		{5, 2, []int{3, 2}},
		{7, 3, []int{3, 2, 2}},
		{6, 2, []int{3, 3}},
	}
	for _, tc := range cases {
		got := stream.SplitWorkers(tc.avail, tc.stages)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("SplitWorkers(%d, %d) = %v, want %v", tc.avail, tc.stages, got, tc.want)
		}
	}
	for _, fn := range []func(){
		func() { stream.SplitWorkers(1, 2) },
		func() { stream.SplitWorkers(3, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("SplitWorkers misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestPipelineValidation: malformed pipelines panic at plan time, not
// deep inside a running world.
func TestPipelineValidation(t *testing.T) {
	for name, pl := range map[string]*stream.Pipeline[float64]{
		"zero width": {Width: 0, Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 { return dst }},
		"no source":  {Width: 1},
		"no fn": {Width: 1,
			Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 { return iota64(first, n, dst) },
			Stages: []stream.Stage[float64]{{Name: "hole"}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Procs() did not panic", name)
				}
			}()
			pl.Procs()
		}()
	}
}

// TestProcsLayout: world size is source + workers + sink.
func TestProcsLayout(t *testing.T) {
	pl := countingPipeline(4, nil)
	if got := pl.Procs(); got != 6 {
		t.Errorf("Procs() = %d, want 6 (source + 4 workers + sink)", got)
	}
}

// flat concatenates the sink's batches into the element stream they
// carry.
func flat(batches [][]float64) []float64 {
	var out []float64
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// runReal runs pl on the real backend and returns the sink's batches.
func runReal(t testing.TB, pl *stream.Pipeline[float64], cfg stream.Config) ([][]float64, error) {
	t.Helper()
	var out [][]float64
	_, err := core.Run(context.Background(), backend.Real(), pl.Procs(), model(), func(p *spmd.Proc) {
		if res := stream.Run(p, pl, cfg); res != nil {
			out = res
		}
	})
	return out, err
}

// TestSinkReturnsBatchesAsEmitted: the sink returns the batches it
// holds, through batches that do not divide the element count and a
// last stage that emits an empty batch, two one-element ones and a whole
// one in turn. Every returned batch is whole elements and non-empty, a
// batch of at least PackBelow scalars is the very slice the last stage
// emitted, the small ones are packed, and the stream is intact; an empty
// stream is nil.
func TestSinkReturnsBatchesAsEmitted(t *testing.T) {
	const width = 3
	var emitted [][]float64 // touched by the last stage's rank only, read after the run
	pl := &stream.Pipeline[float64]{
		Name:  "ragged",
		Width: width,
		Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
			return iota64(first*width, n*width, dst)
		},
		Stages: []stream.Stage[float64]{{
			Name:  "thin",
			State: func(c spmd.Comm) any { return new(int) }, // batches seen
			Fn: func(c spmd.Comm, state any, in []float64) []float64 {
				i := state.(*int)
				*i++
				switch *i % 4 {
				case 0:
					return nil
				case 1, 2:
					in = in[:width]
				}
				emitted = append(emitted, in)
				return in
			},
		}},
	}
	out, err := runReal(t, pl, stream.Config{Elems: 1000, Batch: 7})
	if err != nil {
		t.Fatal(err)
	}
	var whole [][]float64
	for _, b := range emitted {
		if len(b) >= stream.PackBelow {
			whole = append(whole, b)
		}
	}
	var kept [][]float64
	for i, b := range out {
		if len(b) == 0 || len(b)%width != 0 {
			t.Fatalf("batch %d holds %d scalars, want a positive multiple of %d", i, len(b), width)
		}
		if len(b) >= stream.PackBelow && cap(b) != stream.RunCap {
			kept = append(kept, b)
		}
	}
	if len(kept) != len(whole) || len(whole) < 10 {
		t.Fatalf("sink kept %d batches as received, the stage emitted %d of at least %d scalars", len(kept), len(whole), stream.PackBelow)
	}
	for i := range kept {
		if len(kept[i]) != len(whole[i]) || &kept[i][0] != &whole[i][0] {
			t.Fatalf("kept batch %d is not the slice the stage emitted", i)
		}
	}
	if len(out) >= len(emitted) {
		t.Errorf("sink returned %d batches for %d non-empty emitted: small batches were not packed", len(out), len(emitted))
	}
	if got, want := flat(out), flat(emitted); !slices.Equal(got, want) {
		t.Fatalf("sink stream (%d scalars) differs from the emitted stream (%d scalars)", len(got), len(want))
	}
	out, err = runReal(t, countingPipeline(2, nil), stream.Config{Elems: 0})
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		t.Errorf("empty stream returned %v, want nil", out)
	}
}

// TestSinkPacksSmallBatchesInOrder: the sink copies batches of a few
// scalars into its own runs and keeps the rest as received; a stream
// that mixes both — a stretch of one-scalar batches long enough to fill
// a run, then sizes on either side of the threshold, empty ones included
// — must come out in stream order.
func TestSinkPacksSmallBatchesInOrder(t *testing.T) {
	sizes := []int{1, 40, 2, 0, 15, 16, 3, 5000}
	pl := countingPipeline(1, nil)
	pl.Stages = append(pl.Stages, stream.Stage[float64]{
		Name:  "ragged",
		State: func(c spmd.Comm) any { return new([2]int) }, // batches seen, scalars emitted
		Fn: func(c spmd.Comm, state any, in []float64) []float64 {
			st := state.(*[2]int)
			n := 1
			if st[0] >= 5000 {
				n = sizes[st[0]%len(sizes)]
			}
			st[0]++
			st[1] += n
			return iota64(int64(st[1]-n), n, nil)
		},
	})
	batches, err := runReal(t, pl, stream.Config{Elems: 5400, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := flat(batches)
	if want := 5000 + 50*(1+40+2+15+16+3+5000); len(out) != want {
		t.Fatalf("sink returned %d scalars, want %d", len(out), want)
	}
	for i, v := range out {
		if v != float64(i) {
			t.Fatalf("out[%d] = %g: stream order lost between packed and kept batches", i, v)
		}
	}
}

// TestSinkAllocationBudget: a streamfft-shaped run (1,024-scalar
// elements, 4 per batch) may allocate its output about once — the
// source's batch buffers, which the sink returns — plus protocol small
// change. A sink that copied the stream at its end would allocate it
// twice, and one that regrew a result per batch several times.
func TestSinkAllocationBudget(t *testing.T) {
	const width, elems = 1024, 512
	pl := &stream.Pipeline[float64]{
		Name:  "wide",
		Width: width,
		Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
			return dst[:n*width]
		},
		Stages: []stream.Stage[float64]{{
			Name: "forward",
			Fn:   func(c spmd.Comm, _ any, in []float64) []float64 { return in },
		}},
	}
	cfg := stream.Config{Elems: elems, Batch: 4, Credits: 4}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	batches, err := runReal(t, pl, cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	out := flat(batches)
	outBytes := uint64(len(out)) * 8
	if outBytes != width*elems*8 {
		t.Fatalf("sink returned %d scalars, want %d", len(out), width*elems)
	}
	if got, budget := after.TotalAlloc-before.TotalAlloc, outBytes*3/2; got > budget {
		t.Errorf("run allocated %d bytes for %d bytes of output, budget %d (1.5x)", got, outBytes, budget)
	}
}

// TestSourceContract: a source that appends one scalar too many or too
// few for its batch panics on the source rank with a message naming the
// pipeline and the batch it was asked for; the panic unwinds the other
// ranks and is the run's error.
func TestSourceContract(t *testing.T) {
	for _, off := range []int{-1, +1} {
		pl := &stream.Pipeline[float64]{
			Name:  "miscount",
			Width: 3,
			Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
				k := n * 3
				if first == 10 {
					k += off
				}
				return append(dst, make([]float64, k)...)
			},
			Stages: []stream.Stage[float64]{{
				Name: "forward",
				Fn:   func(c spmd.Comm, _ any, in []float64) []float64 { return in },
			}},
		}
		_, err := core.Run(context.Background(), backend.Real(), pl.Procs(), model(), func(p *spmd.Proc) {
			stream.Run(p, pl, stream.Config{Elems: 100, Batch: 5})
		})
		if err == nil {
			t.Fatalf("off by %+d: run succeeded, want a source-contract panic", off)
		}
		for _, want := range []string{"process 0 panicked", `"miscount"`, "[10, 10+5)", fmt.Sprintf("emitted %d scalars", 15+off)} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("off by %+d: error %q does not mention %s", off, err, want)
			}
		}
	}
}

// TestWindowRatesWithinABatch: when one batch completes several progress
// windows they all ended at that batch's arrival, so they share one rate
// — the batch's elements over the time since the previous batch's
// windows — instead of the first being timed and the rest reading
// nanoseconds apart. The source paces the first batch and a sleep in the
// last window of every batch paces the rest, so every batch interval is
// at least pace and every honest rate is within 10x of the overall one.
func TestWindowRatesWithinABatch(t *testing.T) {
	const (
		perBatch = 4 // windows per batch
		batches  = 16
		pace     = 5 * time.Millisecond
	)
	pl := countingPipeline(1, nil)
	src := pl.Source
	pl.Source = func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
		time.Sleep(pace)
		return src(c, first, n, dst)
	}
	var wins []stream.Window
	cfg := stream.Config{
		Elems: perBatch * batches, Batch: perBatch, Credits: 2,
		Window: 1,
		OnWindow: func(w stream.Window) {
			wins = append(wins, w)
			if w.Index%perBatch == 0 {
				time.Sleep(pace)
			}
		},
	}
	if _, err := runReal(t, pl, cfg); err != nil {
		t.Fatal(err)
	}
	if len(wins) != perBatch*batches {
		t.Fatalf("observed %d windows, want %d", len(wins), perBatch*batches)
	}
	last := wins[len(wins)-1]
	overall := float64(last.Elems) / last.Elapsed
	for i, w := range wins {
		if w.Index != i+1 || w.Elems != int64(i+1) {
			t.Fatalf("window %d = %+v, want index %d and %d elems", i, w, i+1, i+1)
		}
		if w.Rate > 10*overall || w.Rate < overall/10 {
			t.Errorf("window %d rate %.0f elems/s, overall %.0f: not within 10x", w.Index, w.Rate, overall)
		}
	}
}

// BenchmarkStreamSink: a scalar pipeline whose every element ends up in
// the sink's result, the shape that exposes what the sink does with a
// batch besides receiving it.
func BenchmarkStreamSink(b *testing.B) {
	const elems = 1 << 20
	pl := countingPipeline(1, nil)
	cfg := stream.Config{Elems: elems, Batch: 256}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := runReal(b, pl, cfg)
		got := 0
		for _, batch := range out {
			got += len(batch)
		}
		if err != nil || got != elems {
			b.Fatalf("sink collected %d elems, err %v", got, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/elems, "ns/elem")
}
