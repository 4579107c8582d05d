// Package stream is the streaming archetype: unbounded element streams
// flowing through a typed stage graph on an SPMD world, with bounded
// per-stage buffers enforced by credit-based flow control, element
// batching to amortize per-message cost, and per-stage parallelism (farm
// stages fanning batches across worker ranks with deterministic order
// restoration).
//
// Where every other archetype in this repository is batch — one input,
// one output, one makespan — a stream program is long-lived: a source
// produces elements indefinitely (bounded here by Config.Elems so runs
// terminate), stages transform them, and a sink consumes them while the
// source is still producing. This is the stream-parallelism pattern of
// the pipeline archetype: an arbitrary stage list, whose stages work on
// different batches at once (TestStagesOverlap pins that on the
// simulator), an explicit credit window between every two of them
// instead of an unbounded buffer, and a worker farm per stage.
//
// # Topology
//
// A Pipeline maps onto world ranks in order: rank 0 is the source, each
// stage takes Workers consecutive ranks, and the last rank is the sink —
// Procs reports the required world size. Elements travel in batches (a
// flat []T of whole elements, Width scalars each); a batch is one
// message, so Config.Batch is the knob that trades per-message overhead
// against pipeline granularity.
//
// # Order restoration
//
// Every edge between consecutive layers (kIn producer ranks feeding kOut
// consumer ranks) is deterministic: global batch j is produced by
// producer j%kIn and consumed by consumer j%kOut, so each pair
// communicates over a plain FIFO and the interleave — not tags, not
// sequence numbers — restores global order exactly. The protocol
// requires every stage to emit exactly one output batch per input batch
// (possibly empty: nil from Fn is sent as an empty, non-nil slice), so
// local batch indices stay aligned with global ones even through
// cardinality-changing stages. End of stream is a nil batch, sent once
// per reachable consumer.
//
// # Backpressure
//
// The mailbox fabric underneath is unbounded, so boundedness is enforced
// here: a producer may have at most Config.Credits unacknowledged
// batches outstanding to any one consumer, and blocks (in an ordinary
// Recv) for a credit when the window is full. A consumer returns one
// credit per batch after fully processing it — after its own downstream
// send, so a batch occupies its stage until it has moved on. Stalling
// the sink therefore provably stalls the source: with S stages the
// source can run at most (S+1)·Credits + S+1 batches ahead before its
// first credit Recv blocks. Producers drain their outstanding credits
// before sending EOS, so a finished stream leaves no undelivered
// messages in the fabric.
//
// # Ownership
//
// A batch belongs to whoever holds it: after send the producer neither
// reads nor writes it, and the sink keeps batches until end of stream.
// Every backend already delivers on those terms (sim and real hand the
// slice over, dist and elastic decode into a fresh one), so nothing on
// the path copies a batch: the source fills a fresh buffer per batch, a
// stage may transform its input in place and forward it, and the sink
// holds what it receives (packing only batches of a few scalars, which
// cost more to hold than to copy) and returns what it holds. The result
// is the very memory the stages emitted, so a stage that emits a slice
// of its own state must not touch that memory again.
//
// Per-stage state (Danelutto et al.'s state access patterns) is
// per-worker: a Stage's State constructor runs once on each worker rank,
// and Fn/Flush receive that worker's value. Stateful stages that must
// see the whole stream run with Workers=1; farms carry independent
// per-worker state.
package stream

import (
	"fmt"
	"time"

	"repro/internal/collective"
	"repro/internal/spmd"
)

// Stage is one transformation layer of a pipeline.
type Stage[T any] struct {
	// Name labels the stage in diagnostics.
	Name string
	// Workers is the stage's parallelism: how many consecutive world
	// ranks process its batches (a farm when > 1). Zero means 1.
	Workers int
	// OutWidth is the number of scalars per output element; 0 means the
	// stage preserves the element width it receives.
	OutWidth int
	// State optionally builds this worker's private stage state before
	// the first batch; Fn and Flush receive the built value.
	State func(c spmd.Comm) any
	// Fn transforms one input batch (whole elements, owned by the stage:
	// it may mutate or retain in) into one output batch — a multiple of
	// OutWidth scalars, possibly empty, possibly the input slice itself.
	// It runs once per input batch, in stream order per worker. The
	// returned batch is handed downstream and is no longer the stage's
	// (see Ownership in the package comment).
	Fn func(c spmd.Comm, state any, in []T) []T
	// Flush optionally emits one final batch (buffered state, partial
	// windows) after the worker's last input batch and before EOS, under
	// the same ownership rule as Fn's result.
	Flush func(c spmd.Comm, state any) []T
}

// Pipeline is a stage graph: a source generating fixed-width elements,
// an ordered stage list, and an implicit collecting sink.
type Pipeline[T any] struct {
	// Name labels the pipeline in diagnostics.
	Name string
	// Width is the number of scalars per source element.
	Width int
	// Source appends elements [first, first+n) — n·Width scalars, in
	// element order — to dst and returns it. It runs on the source rank
	// once per batch, in stream order; n is Config.Batch except for a
	// shorter final batch. dst arrives empty with capacity for the whole
	// batch and is never handed to Source twice.
	Source func(c spmd.Comm, first int64, n int, dst []T) []T
	// Stages is the transformation layers in flow order.
	Stages []Stage[T]
}

// Config sets one run's streaming knobs. The zero value means: no
// elements, DefaultBatch-element batches, DefaultCredits-batch windows,
// no progress windows.
type Config struct {
	// Elems is the total number of elements the source produces.
	Elems int64
	// Batch is the number of elements per source batch (one message);
	// <= 0 means DefaultBatch.
	Batch int
	// Credits is the per-producer-consumer-pair flow-control window in
	// batches — the bounded buffer size; <= 0 means DefaultCredits.
	Credits int
	// Window is the progress-window size in sink-side output elements;
	// <= 0 disables windows.
	Window int64
	// OnWindow, if set, observes each completed progress window. It is
	// called synchronously from the sink rank's goroutine (host wall
	// clock, not part of the metered run); a blocking OnWindow
	// backpressures the whole pipeline.
	OnWindow func(Window)
}

// Defaults for Config's zero fields.
const (
	DefaultBatch   = 32
	DefaultCredits = 4
)

// Window is one sink-side progress report: the stream's visible
// heartbeat for long-lived jobs.
type Window struct {
	// Index is the 1-based window number.
	Index int
	// Elems is the cumulative count of output elements through the sink.
	Elems int64
	// Elapsed is wall-clock seconds since the sink started.
	Elapsed float64
	// Rate is output elements per wall-clock second within this window.
	Rate float64
}

// norm returns cfg with defaults filled in.
func (cfg Config) norm() Config {
	if cfg.Batch <= 0 {
		cfg.Batch = DefaultBatch
	}
	if cfg.Credits <= 0 {
		cfg.Credits = DefaultCredits
	}
	return cfg
}

// Tag space: each edge e uses tagBase+2e for data batches and
// tagBase+2e+1 for the credits flowing back.
const tagBase = collective.TagUser + 100

// plan is the resolved rank layout and per-layer element widths of a
// pipeline, identical on every rank by construction.
type plan struct {
	workers []int // per stage, normalized >= 1
	starts  []int // first world rank of each stage
	widths  []int // widths[s] = input width of stage s; widths[len] = sink width
	procs   int
}

func (pl *Pipeline[T]) plan() plan {
	if pl.Width <= 0 {
		panic(fmt.Sprintf("stream: pipeline %q: element width must be positive, got %d", pl.Name, pl.Width))
	}
	if pl.Source == nil {
		panic(fmt.Sprintf("stream: pipeline %q has no source", pl.Name))
	}
	p := plan{procs: 1} // source
	w := pl.Width
	p.widths = append(p.widths, w)
	for i, st := range pl.Stages {
		if st.Fn == nil {
			panic(fmt.Sprintf("stream: pipeline %q stage %d (%s) has no Fn", pl.Name, i, st.Name))
		}
		k := st.Workers
		if k <= 0 {
			k = 1
		}
		p.workers = append(p.workers, k)
		p.starts = append(p.starts, p.procs)
		p.procs += k
		if st.OutWidth > 0 {
			w = st.OutWidth
		}
		p.widths = append(p.widths, w)
	}
	p.procs++ // sink
	return p
}

// Procs returns the world size the pipeline requires: one source rank,
// each stage's workers, and one sink rank.
func (pl *Pipeline[T]) Procs() int { return pl.plan().procs }

// OutWidth returns the number of scalars per element of the sink's
// output stream.
func (pl *Pipeline[T]) OutWidth() int {
	ws := pl.plan().widths
	return ws[len(ws)-1]
}

// SplitWorkers divides avail worker ranks as evenly as possible among
// nstages stages, earlier stages taking the extras. It panics when avail
// cannot give every stage at least one worker — callers validate their
// process budget first.
func SplitWorkers(avail, nstages int) []int {
	if nstages <= 0 {
		panic("stream: SplitWorkers with no stages")
	}
	if avail < nstages {
		panic(fmt.Sprintf("stream: %d worker ranks cannot cover %d stages", avail, nstages))
	}
	out := make([]int, nstages)
	for i := range out {
		out[i] = avail / nstages
		if i < avail%nstages {
			out[i]++
		}
	}
	return out
}

// layer identifies one end of an edge: consecutive world ranks.
type layer struct {
	start, n int
}

func (l layer) rank(i int) int { return l.start + i }

// gcd of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// reaches reports whether producer index q and consumer index c of a
// kIn×kOut edge ever exchange a batch: global indices j with j≡q (mod
// kIn) and j≡c (mod kOut) exist iff gcd | (q-c).
func reaches(q, c, g int) bool { return (q-c)%g == 0 }

// sender is a producer's view of one edge: round-robin dispatch with a
// per-consumer credit window.
type sender[T any] struct {
	p           *spmd.Proc
	q           int // my producer index within the edge
	kIn         int
	cons        layer
	dataTag     int
	creditTag   int
	credits     int
	m           int64 // local batches sent
	outstanding []int // unacknowledged batches per consumer
}

func newSender[T any](p *spmd.Proc, q, kIn int, cons layer, edge, credits int) *sender[T] {
	return &sender[T]{
		p: p, q: q, kIn: kIn, cons: cons,
		dataTag: tagBase + 2*edge, creditTag: tagBase + 2*edge + 1,
		credits: credits, outstanding: make([]int, cons.n),
	}
}

// send ships one batch to the consumer that owns its global index,
// first blocking for a credit if that consumer's window is full. A nil
// batch is sent as empty — nil on the wire means EOS.
func (s *sender[T]) send(batch []T) {
	if batch == nil {
		batch = []T{}
	}
	c := int((s.m*int64(s.kIn) + int64(s.q)) % int64(s.cons.n))
	if s.outstanding[c] == s.credits {
		s.p.Recv(s.cons.rank(c), s.creditTag)
		s.outstanding[c]--
	}
	spmd.SendT(s.p, s.cons.rank(c), s.dataTag, batch)
	s.outstanding[c]++
	s.m++
}

// close drains every outstanding credit and then sends EOS (a nil
// batch) to each consumer this producer can reach, leaving the edge's
// FIFOs empty.
func (s *sender[T]) close() {
	g := gcd(s.kIn, s.cons.n)
	for c := 0; c < s.cons.n; c++ {
		for s.outstanding[c] > 0 {
			s.p.Recv(s.cons.rank(c), s.creditTag)
			s.outstanding[c]--
		}
		if reaches(s.q, c, g) {
			spmd.SendT[[]T](s.p, s.cons.rank(c), s.dataTag, nil)
		}
	}
}

// receiver is a consumer's view of one edge: round-robin collection in
// global batch order, returning credits after each batch is processed.
type receiver[T any] struct {
	p         *spmd.Proc
	c         int // my consumer index within the edge
	kOut      int
	prods     layer
	dataTag   int
	creditTag int
	done      []bool
	live      int
	j         int64 // next expected global batch index (≡ c mod kOut)
	last      int   // producer index of the batch pending acknowledgement
}

func newReceiver[T any](p *spmd.Proc, c, kOut int, prods layer, edge int) *receiver[T] {
	r := &receiver[T]{
		p: p, c: c, kOut: kOut, prods: prods,
		dataTag: tagBase + 2*edge, creditTag: tagBase + 2*edge + 1,
		done: make([]bool, prods.n), j: int64(c), last: -1,
	}
	g := gcd(prods.n, kOut)
	for q := 0; q < prods.n; q++ {
		if reaches(q, c, g) {
			r.live++
		} else {
			r.done[q] = true // never sends to us, not even EOS
		}
	}
	return r
}

// next returns the next batch in global order, or ok=false once every
// reachable producer has sent EOS.
func (r *receiver[T]) next() ([]T, bool) {
	for r.live > 0 {
		q := int(r.j % int64(r.prods.n))
		r.j += int64(r.kOut)
		if r.done[q] {
			continue
		}
		batch := spmd.Recv[[]T](r.p, r.prods.rank(q), r.dataTag)
		if batch == nil { // EOS from this producer
			r.done[q] = true
			r.live--
			continue
		}
		r.last = q
		return batch, true
	}
	return nil, false
}

// ack returns one credit for the batch last returned by next. Call it
// after the batch has been fully processed (including any downstream
// send), so the credit window measures true occupancy.
func (r *receiver[T]) ack() {
	if r.last < 0 {
		panic("stream: ack with no batch pending")
	}
	r.p.Send(r.prods.rank(r.last), r.creditTag, nil)
	r.last = -1
}

// Run executes the pipeline as world process p's body. The world size
// must equal pl.Procs(); Config.Elems elements flow source→stages→sink
// in Batch-element batches under Credits-batch flow-control windows.
// The sink rank returns the output stream as the non-empty batches it
// received, in stream order, each whole elements of OutWidth scalars
// (nil for an empty stream); every other rank returns nil.
//
// The protocol is deterministic — plain Recv only, no RecvAny — so the
// same pipeline produces element-exact outputs and identical
// message/byte meters on every backend; only the meaning of time
// differs. Cancelling the world's context unwinds all ranks mid-stream.
func Run[T any](p *spmd.Proc, pl *Pipeline[T], cfg Config) [][]T {
	lay := pl.plan()
	if p.N() != lay.procs {
		panic(fmt.Sprintf("stream: pipeline %q needs exactly %d processes (source + %v + sink), world has %d",
			pl.Name, lay.procs, lay.workers, p.N()))
	}
	if cfg.Elems < 0 {
		panic(fmt.Sprintf("stream: negative element count %d", cfg.Elems))
	}
	cfg = cfg.norm()

	rank := p.Rank()
	nStages := len(pl.Stages)
	layerOf := func(s int) layer { // s in [0, nStages); source/sink are explicit
		return layer{start: lay.starts[s], n: lay.workers[s]}
	}
	sink := layer{start: lay.procs - 1, n: 1}
	source := layer{start: 0, n: 1}
	consOf := func(edge int) layer { // edge e feeds stage e, or the sink
		if edge == nStages {
			return sink
		}
		return layerOf(edge)
	}
	prodsOf := func(edge int) layer { // edge e is fed by stage e-1, or the source
		if edge == 0 {
			return source
		}
		return layerOf(edge - 1)
	}

	switch {
	case rank == 0:
		runSource(p, pl, cfg, consOf(0))
		return nil
	case rank == lay.procs-1:
		return runSink[T](p, cfg, prodsOf(nStages), nStages, lay.widths[nStages])
	default:
		s := 0
		for rank >= lay.starts[s]+lay.workers[s] {
			s++
		}
		runWorker(p, &pl.Stages[s], rank-lay.starts[s], lay.workers[s], cfg,
			prodsOf(s), consOf(s+1), s, lay.widths[s], lay.widths[s+1])
		return nil
	}
}

// runSource generates the stream one batch per Source call and ships
// each into the first edge. It blocks — and therefore stops generating —
// whenever the edge's credit window is exhausted.
func runSource[T any](p *spmd.Proc, pl *Pipeline[T], cfg Config, cons layer) {
	out := newSender[T](p, 0, 1, cons, 0, cfg.Credits)
	for first := int64(0); first < cfg.Elems; first += int64(cfg.Batch) {
		n := cfg.Batch
		if rest := cfg.Elems - first; rest < int64(n) {
			n = int(rest)
		}
		// A sent batch is the receiver's, so every batch gets its own buffer.
		batch := pl.Source(p, first, n, make([]T, 0, n*pl.Width))
		if len(batch) != n*pl.Width {
			panic(fmt.Sprintf("stream: pipeline %q source emitted %d scalars for elements [%d, %d+%d), want %d",
				pl.Name, len(batch), first, first, n, n*pl.Width))
		}
		out.send(batch)
	}
	out.close()
}

// runWorker is one stage worker (worker w of k): receive batches in
// order, transform, forward exactly one output batch per input batch,
// acknowledge.
func runWorker[T any](p *spmd.Proc, st *Stage[T], w, k int, cfg Config, prods, cons layer, edge, inWidth, outWidth int) {
	in := newReceiver[T](p, w, k, prods, edge)
	out := newSender[T](p, w, k, cons, edge+1, cfg.Credits)
	var state any
	if st.State != nil {
		state = st.State(p)
	}
	for {
		batch, ok := in.next()
		if !ok {
			break
		}
		if len(batch)%inWidth != 0 {
			panic(fmt.Sprintf("stream: stage %q received %d scalars, not a multiple of element width %d",
				st.Name, len(batch), inWidth))
		}
		res := st.Fn(p, state, batch)
		if len(res)%outWidth != 0 {
			panic(fmt.Sprintf("stream: stage %q emitted %d scalars, not a multiple of element width %d",
				st.Name, len(res), outWidth))
		}
		out.send(res)
		in.ack()
	}
	if st.Flush != nil {
		if res := st.Flush(p, state); len(res) > 0 {
			if len(res)%outWidth != 0 {
				panic(fmt.Sprintf("stream: stage %q flushed %d scalars, not a multiple of element width %d",
					st.Name, len(res), outWidth))
			}
			out.send(res)
		}
	}
	out.close()
}

// Keeping a batch costs the sink a slice header and one more live
// object. For a few scalars that is dearer than copying them (measured
// for float64: 14 % dearer at one scalar per batch, even at 4–8, cheaper
// from 16 — EXPERIMENTS.md), so batches below packBelow scalars are
// packed into sink-owned runs of runCap scalars that never regrow and
// sit among the kept batches in stream order.
const (
	packBelow = 16
	runCap    = 4096
)

// runSink keeps the output stream's batches in order, fires progress
// windows, and returns what it kept: the received batches and its own
// runs, none empty (nil for an empty stream).
func runSink[T any](p *spmd.Proc, cfg Config, prods layer, edge, width int) [][]T {
	in := newReceiver[T](p, 0, 1, prods, edge)
	observed := cfg.Window > 0 && cfg.OnWindow != nil
	var kept [][]T   // the stream so far, in order: received batches and runs
	packing := false // kept's last entry is a run, not a received batch
	var scalars int
	start := time.Now()
	winStart := start
	var winIdx int
	var fired int64 // elements already attributed to fired windows
	// fire reports the n windows of winElems elements each that ended at
	// now, all at the rate measured since the last fired window.
	fire := func(n, winElems int64, now time.Time) {
		rate := 0.0
		if dt := now.Sub(winStart).Seconds(); dt > 0 {
			rate = float64(n*winElems) / dt
		}
		for ; n > 0; n-- {
			fired += winElems
			winIdx++
			cfg.OnWindow(Window{Index: winIdx, Elems: fired, Elapsed: now.Sub(start).Seconds(), Rate: rate})
		}
		winStart = now
	}
	for {
		batch, ok := in.next()
		if !ok {
			break
		}
		if len(batch)%width != 0 {
			panic(fmt.Sprintf("stream: sink received %d scalars, not a multiple of element width %d",
				len(batch), width))
		}
		switch last := len(kept) - 1; {
		case len(batch) >= packBelow:
			kept = append(kept, batch)
			packing = false
		case packing && cap(kept[last])-len(kept[last]) >= len(batch):
			kept[last] = append(kept[last], batch...)
		case len(batch) > 0:
			kept = append(kept, append(make([]T, 0, runCap), batch...))
			packing = true
		}
		scalars += len(batch)
		if observed {
			// One timestamp per batch: the windows a batch completes ended
			// together, as far as the sink can tell.
			if n := (int64(scalars/width) - fired) / cfg.Window; n > 0 {
				fire(n, cfg.Window, time.Now())
			}
		}
		in.ack()
	}
	if tail := int64(scalars/width) - fired; observed && tail > 0 {
		fire(1, tail, time.Now())
	}
	return kept
}
