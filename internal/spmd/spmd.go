// Package spmd provides the SPMD (single-program multiple-data) process
// runtime on which archetype programs execute.
//
// A World runs N logical processes, one goroutine each, connected by
// per-pair FIFO message queues — the "multicomputer" of the paper. The
// message fabric, clock, and pricing live behind a backend.Transport, so
// the same program text runs on different execution substrates:
//
//   - backend.Sim (the default) carries a virtual clock per process,
//     advanced by explicit compute charges and by message costs from a
//     machine.Model, so the same program yields deterministic makespans
//     for any process count regardless of how the host schedules
//     goroutines. The paper's speedup figures (6, 12, 15, 16, 17, 18)
//     are regenerated from these virtual makespans.
//   - backend.Real runs the processes at hardware speed over native
//     channels and meters the run with the wall clock.
//   - backend/dist routes the same operations across worker OS processes
//     over sockets (payloads travel through this package's wire codec,
//     AppendPayload/DecodePayload).
//
// Programs written against Proc are ordinary Go: they really compute their
// results (sorts really sort, solvers really solve); the clock — virtual
// or wall — is bookkeeping layered on top.
//
// Messaging is typed and self-metering: Send prices every payload through
// BytesOf, which reads the payload table (payload.go; application types
// register there, generic wrappers send a Wrapped), so call sites never
// hand-count bytes; SendT adds static payload typing on top, pairing with
// the typed Recv.
package spmd

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/obs"
)

// World is a set of N communicating processes plus the machine model that
// prices their communication and computation. The transport is created
// when Run starts, not at construction: a world that is never run costs
// nothing and registers no context watcher.
type World struct {
	ctx    context.Context
	runner backend.Runner
	n      int
	model  *machine.Model
	t      backend.Transport
	ran    bool
	// rec is the run's flight recorder, taken from the transport; nil
	// when tracing is off (the normal, free case).
	rec *obs.Recorder
}

// NewWorld creates a world of n processes over the given machine model on
// the default virtual-time simulator backend with a background context.
// It returns an error on an invalid model or non-positive n.
func NewWorld(n int, m *machine.Model) (*World, error) {
	return NewWorldOn(context.Background(), backend.Default(), n, m)
}

// NewWorldOn creates a world of n processes over the given machine model
// on the given execution backend. Cancelling ctx aborts a run in flight:
// processes blocked in (or entering) communication unwind, and Run
// returns the context's error.
func NewWorldOn(ctx context.Context, r backend.Runner, n int, m *machine.Model) (*World, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if r == nil {
		return nil, fmt.Errorf("spmd: nil backend runner")
	}
	if n <= 0 {
		return nil, fmt.Errorf("spmd: world size must be positive, got %d", n)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("spmd: %w", err)
	}
	return &World{ctx: ctx, runner: r, n: n, model: m}, nil
}

// MustWorld is NewWorld for static configurations known to be valid
// (tests, examples): it panics on error.
func MustWorld(n int, m *machine.Model) *World {
	w, err := NewWorld(n, m)
	if err != nil {
		panic(err)
	}
	return w
}

// MustWorldOn is NewWorldOn with a background context for static
// configurations known to be valid: it panics on error.
func MustWorldOn(r backend.Runner, n int, m *machine.Model) *World {
	w, err := NewWorldOn(context.Background(), r, n, m)
	if err != nil {
		panic(err)
	}
	return w
}

// N returns the number of processes in the world.
func (w *World) N() int { return w.n }

// Model returns the world's machine model.
func (w *World) Model() *machine.Model { return w.model }

// Result summarizes one SPMD run.
type Result struct {
	// Makespan is the run's execution time in seconds: the maximum final
	// virtual clock across processes on the simulator backend, elapsed
	// wall-clock time on the real backend.
	Makespan float64
	// Clocks holds every process's final clock reading.
	Clocks []float64
	// Msgs and Bytes count all point-to-point messages sent (self-sends
	// excluded).
	Msgs  int64
	Bytes int64
	// Recorder is the run's flight recorder when the run was traced
	// (the transport was created under a context carrying an
	// obs.Collector); nil otherwise. The recorder outlives the
	// transport, so callers may read events and build summaries from it
	// after the run.
	Recorder *obs.Recorder
}

// Run executes body on every process concurrently and waits for all of
// them. A panic in any process is recovered and returned as an error
// naming the process, and it cancels the run: peers blocked on the dead
// process (or entering communication later) unwind instead of waiting
// forever. When the world's own context is cancelled, processes blocked
// in communication unwind likewise and Run returns the context's error,
// which takes precedence. A backend that cannot bring its substrate up
// (Runner.NewTransport's error) fails the run before any process starts.
func (w *World) Run(body func(p *Proc)) (*Result, error) {
	if w.ran {
		// A world is one run: Finish releases the transport's fabric for
		// reuse, so running again would race a recycled substrate.
		return nil, fmt.Errorf("spmd: world already run; create a new world per run")
	}
	w.ran = true
	if err := w.ctx.Err(); err != nil {
		return nil, err
	}
	// The transport runs under a context of the run's own, which the first
	// process to panic cancels; firstPanic is that process's error, what
	// Run then returns rather than the cancellation it caused.
	ctx, cancel := context.WithCancel(w.ctx)
	defer cancel()
	var (
		panicked   sync.Once
		firstPanic error
	)
	t, err := w.runner.NewTransport(ctx, w.n, w.model)
	if err != nil {
		// The substrate never came up: no rank runs. A cancellation that
		// landed during start is still reported as the context's error.
		if cerr := w.ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, err
	}
	w.t, w.rec = t, t.Recorder()
	if w.rec != nil {
		w.rec.EmitSys(obs.Event{T: w.rec.Now(), Rank: -1, Kind: obs.KindStart})
	}

	// runRank executes the body for one rank, translating panics: the
	// cancellation sentinel becomes its carried error, anything else a
	// process-panic error that cancels the run.
	runRank := func(rank int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				if cerr, ok := backend.AsCanceled(r); ok {
					err = cerr
					return
				}
				err = fmt.Errorf("spmd: process %d panicked: %v", rank, r)
				panicked.Do(func() {
					firstPanic = err
					cancel()
				})
			}
		}()
		body(&Proc{world: w, rank: rank})
		if w.rec != nil {
			// The body returned normally: stamp the rank's finish on its
			// own ring (virtual time on the simulator, wall otherwise).
			w.rec.Emit(rank, obs.Event{T: w.stamp(rank), Peer: -1, Kind: obs.KindFinish})
		}
		return nil
	}

	var errs []error
	if d, ok := w.t.(backend.Driver); ok {
		// The transport owns rank scheduling (the remote backend): it
		// decides when and how often each rank body executes, and may
		// re-execute a rank after its worker dies. The
		// Finish-on-every-exit-path contract is unchanged.
		errs = []error{d.Drive(runRank)}
	} else {
		errs = make([]error, w.n)
		var wg sync.WaitGroup
		wg.Add(w.n)
		for rank := 0; rank < w.n; rank++ {
			go func() {
				defer wg.Done()
				errs[rank] = runRank(rank)
			}()
		}
		wg.Wait()
	}

	// Every process has returned, so the transport must be finished on
	// every exit path — Finish releases the fabric (and deregisters the
	// context watcher) for reuse; skipping it on errors would pin the
	// fabric and any undrained payloads to the run's context. The errors
	// in order of precedence: the caller's cancellation, the first panic,
	// then whatever the ranks (or the driving transport) returned, which
	// after a panic is only the cancellation it caused.
	err = w.ctx.Err()
	if err == nil {
		err = firstPanic
	}
	for i := 0; err == nil && i < len(errs); i++ {
		err = errs[i]
	}
	if err != nil {
		w.t.Finish()
		return nil, err
	}
	return w.finishResult(), nil
}

// stamp returns rank's current trace timestamp: virtual time on
// virtual-time backends (so sim traces sit on the modeled timeline),
// recorder wall time otherwise. Only valid while the transport is live
// and only from the rank's own goroutine.
func (w *World) stamp(rank int) int64 {
	if w.runner.Virtual() {
		return int64(w.t.Clock(rank) * 1e9)
	}
	return w.rec.Now()
}

// finishResult finishes the transport and assembles the Result,
// stamping the world-finish trace event (the transport is dead after
// Finish, so the stamp comes from the finished makespan on virtual
// backends).
func (w *World) finishResult() *Result {
	fin := w.t.Finish()
	if w.rec != nil {
		t := w.rec.Now()
		if w.runner.Virtual() {
			t = int64(fin.Makespan * 1e9)
		}
		w.rec.EmitSys(obs.Event{T: t, Rank: -1, Kind: obs.KindFinish})
	}
	return &Result{
		Makespan: fin.Makespan,
		Clocks:   fin.Clocks,
		Msgs:     fin.Msgs,
		Bytes:    fin.Bytes,
		Recorder: w.rec,
	}
}

// Proc is one logical process of an SPMD computation: a rank's view of the
// world's execution backend. Methods on Proc must only be called from the
// goroutine running that process.
type Proc struct {
	world *World
	rank  int
}

// Rank returns this process's index in [0, N).
func (p *Proc) Rank() int { return p.rank }

// Recorder returns the run's flight recorder, nil when tracing is off.
// Layers above the transport (collectives) use it to bracket compound
// operations — e.g. a barrier — as single trace events.
func (p *Proc) Recorder() *obs.Recorder { return p.world.rec }

// Stamp returns this rank's current trace timestamp (virtual ns on the
// simulator backend, recorder wall ns otherwise). Only meaningful while
// tracing is on; like all Proc methods it must be called from the
// process's own goroutine.
func (p *Proc) Stamp() int64 { return p.world.stamp(p.rank) }

// N returns the number of processes in the world.
func (p *Proc) N() int { return p.world.n }

// Model returns the machine model pricing this process's work.
func (p *Proc) Model() *machine.Model { return p.world.model }

// Clock returns the process's current time in seconds (virtual on the
// simulator backend, elapsed wall-clock on the real backend).
func (p *Proc) Clock() float64 { return p.world.t.Clock(p.rank) }

// SetResident declares the process's resident data size in bytes. When the
// machine model has a memory capacity and the declaration exceeds it, all
// subsequent compute charges are multiplied by the model's PagingFactor.
// This implements the paper's Figure 18 paging explanation. (The real
// backend ignores the declaration: the host pages for real.)
func (p *Proc) SetResident(bytes float64) { p.world.t.SetResident(p.rank, bytes) }

// Charge advances the virtual clock by sec seconds of computation, subject
// to the paging multiplier. On the real backend the charge is discarded:
// the computation itself already took the time.
func (p *Proc) Charge(sec float64) {
	if sec < 0 {
		panic(fmt.Sprintf("spmd: negative charge %g on process %d", sec, p.rank))
	}
	p.world.t.Charge(p.rank, sec)
}

// Flops charges n floating-point operations.
func (p *Proc) Flops(n float64) { p.Charge(n * p.world.model.FlopTime) }

// Cmps charges n comparison/exchange steps (sorting workloads).
func (p *Proc) Cmps(n float64) { p.Charge(n * p.world.model.CmpTime) }

// MemWords charges n words of pure data movement (pack/unpack/copy).
func (p *Proc) MemWords(n float64) { p.Charge(n * p.world.model.MemTime) }

// Idle advances the clock to at least t (used by receives; exported for
// cost-model extensions such as modelling I/O devices).
func (p *Proc) Idle(t float64) { p.world.t.Idle(p.rank, t) }

// Send transmits data to process dst. The payload's wire size for cost
// accounting is computed by BytesOf from the payload table, and a payload
// the table does not describe panics, which fails the run. tag is a
// protocol check: the matching Recv must ask for the same tag. Send to self is a memory copy: it costs copy time but no
// latency, and is delivered through the same FIFO so program structure is
// uniform.
func (p *Proc) Send(dst, tag int, data any) {
	if dst < 0 || dst >= p.world.n {
		panic(fmt.Sprintf("spmd: process %d sent to invalid rank %d (world size %d)", p.rank, dst, p.world.n))
	}
	p.world.t.Send(p.rank, dst, tag, data, BytesOf(data))
}

// Recv receives the next message from src, which must carry the given tag
// (tags are order checks over the per-pair FIFO, not a matching mechanism;
// a mismatch means the program's communication protocol is broken and
// panics). On the simulator backend the virtual clock advances to the
// message's availability time plus receive overhead; on the real backend
// the receive blocks for real.
func (p *Proc) Recv(src, tag int) any {
	if src < 0 || src >= p.world.n {
		panic(fmt.Sprintf("spmd: process %d received from invalid rank %d (world size %d)", p.rank, src, p.world.n))
	}
	return p.world.t.Recv(src, p.rank, tag)
}

// Recv is the typed receive over any communicator (a world process or a
// group).
func Recv[T any](c Comm, src, tag int) T {
	raw := c.Recv(src, tag)
	v, ok := raw.(T)
	if !ok {
		panic(fmt.Sprintf("spmd: rank %d: message from %d (tag %d) has unexpected type %T", c.Rank(), src, tag, raw))
	}
	return v
}
