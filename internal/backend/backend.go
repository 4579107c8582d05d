// Package backend provides pluggable execution substrates for SPMD
// archetype programs.
//
// The paper's method promises that one program text runs unchanged across
// execution strategies: sequentially for debugging, on a simulated
// multicomputer for cost studies, and on a real machine at hardware speed.
// This package is the seam that makes the last part true. A Transport is
// the per-run substrate extracted from the simulator's World — it carries
// tagged FIFO messages between ranks and owns the notion of time — and a
// Runner is a named Transport factory, one per execution backend.
//
// Two backends are built into this package:
//
//   - Sim: the original virtual-time simulator. Every process carries a
//     virtual clock advanced by compute charges and machine.Model message
//     costs; makespans are deterministic for deterministic programs.
//   - Real: shared-memory execution. Processes are goroutines exchanging
//     data through native channels with no virtual pricing; the makespan
//     is wall-clock time read from an injectable clock. Messages and
//     bytes are still counted identically to Sim, so cost accounting is
//     comparable across backends.
//
// A third backend lives in the backend/dist sub-package and registers
// itself as "dist": the same Transport operations routed across worker
// OS processes over sockets (wall-clock metering, identical msg/byte
// counts). It also registers its fault-tolerant policy, as "elastic".
//
// Programs keep their communication structure and computational results on
// every backend; only the meaning of time (and, for dist, the address
// space messages cross) changes. spmd.World runs on any Transport (see
// spmd.NewWorldOn), and internal/sched sweeps experiment matrices over
// backends concurrently.
package backend

import (
	"context"
	"sort"
	"sync"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Result summarizes one run of an n-process program on a Transport.
type Result struct {
	// Makespan is the run's execution time in seconds: the maximum final
	// virtual clock (Sim) or elapsed wall-clock time (Real).
	Makespan float64
	// Clocks holds every process's final clock reading.
	Clocks []float64
	// Msgs and Bytes count all point-to-point messages sent, self-sends
	// excluded. Both backends count identically.
	Msgs  int64
	Bytes int64
}

// Transport is one run's execution substrate: the send/recv/clock-charge
// operations extracted from the simulator's World. A Transport serves
// exactly one run of an n-process program; rank-indexed methods are only
// called from the goroutine running that rank, while distinct ranks call
// concurrently. In particular, Send(src, ...) runs on src's goroutine and
// Recv/RecvAny(..., dst, ...) on dst's — the built-in fabric shards its
// message accounting per sender and its delivery per destination on the
// strength of that contract.
type Transport interface {
	// Charge accounts sec seconds of modeled computation on rank
	// (non-negative; the caller validates). Virtual-time backends advance
	// the rank's clock, subject to the paging model; wall-clock backends
	// discard the charge because real computation takes real time.
	Charge(rank int, sec float64)
	// SetResident declares rank's resident data size in bytes for the
	// paging model (see machine.Model.MemPerProc).
	SetResident(rank int, bytes float64)
	// Clock returns rank's current time in seconds.
	Clock(rank int) float64
	// Idle advances rank's clock to at least t (no-op when time is not
	// advanceable, i.e. wall-clock backends).
	Idle(rank int, t float64)
	// Send transmits (tag, data, bytes) from src to dst over the per-pair
	// FIFO, pricing it according to the backend's notion of time.
	Send(src, dst, tag int, data any, bytes int)
	// Recv returns the next message from src at dst. The message must
	// carry the given tag: tags are order checks over the per-pair FIFO,
	// and a mismatch panics because the program's protocol is broken.
	Recv(src, dst, tag int) any
	// RecvAny returns the earliest-arrived message queued at dst, along
	// with the sender's rank; it must carry tag. Which messages have
	// arrived by then still depends on host scheduling, on every backend
	// (virtual-time ones included).
	RecvAny(dst, tag int) (int, any)
	// Recorder returns the run's flight recorder — present when the
	// transport was created under a context carrying an obs.Collector
	// (see obs.RunRecorder), so spmd.World can stamp world-level events
	// onto the same trace and hand the recorder back with the run's
	// Result — and nil when tracing is off, which obs makes free.
	Recorder() *obs.Recorder
	// Finish assembles the run summary after every process has returned.
	// It may release the transport's internal fabric for reuse by later
	// runs: the transport is dead afterwards, and no method (including
	// Finish itself) may be called on it again.
	Finish() Result
}

// Driver is the optional Transport capability: a transport that owns rank
// scheduling. When a transport implements Driver, spmd.World.Run hands it
// a run function instead of spawning one goroutine per rank itself, and
// the transport decides when — and how many times — each rank's body
// executes, and what happens on the rank's goroutine once the body
// returns. This is the seam the remote backend needs: re-executing a rank
// after its worker dies only works if the substrate, not the world, owns
// the rank's goroutine, and a rank's buffered sends must reach the wire
// after its body's last operation.
//
// Drive must call run(rank) at least once for every rank in [0, n) (ranks
// may run concurrently; each call runs the full rank body) and return
// after all rank executions it started have returned. run reports the
// rank body's outcome: nil on normal completion, the sentinel error for a
// panic carrying Canceled (how transports signal their own control flow,
// e.g. "this attempt's worker died, re-execute me"), or a wrapped panic
// otherwise. Drive's returned error becomes the run's error; returning
// nil means every rank completed exactly once from the program's point of
// view. The world still calls Finish afterwards on every path.
type Driver interface {
	Drive(run func(rank int) error) error
}

// Runner is a named Transport factory: one Runner per execution backend.
// Runners are stateless and safe for concurrent use; each NewTransport
// call yields an independent run substrate.
type Runner interface {
	// Name identifies the backend ("sim", "real") in flags, scheduler
	// cache keys, and reports.
	Name() string
	// Virtual reports whether the backend's time is virtual (compute
	// charges advance per-rank clocks; runs are deterministic and can be
	// co-scheduled freely) or wall-clock (runs are measurements and must
	// not share the host's cores with competing cells).
	Virtual() bool
	// NewTransport builds the substrate for one run of an n-process
	// program priced by (or, for wall-clock backends, merely annotated
	// with) the given machine model. Cancelling ctx aborts the run:
	// blocked (and subsequently attempted) transport operations raise the
	// cancellation sentinel (see AsCanceled), which spmd.World.Run turns
	// into the context's error. A substrate that cannot be brought up
	// (workers that never attach, an unspawnable command) is the returned
	// error: spmd.World.Run reports it before any rank body executes.
	NewTransport(ctx context.Context, n int, m *machine.Model) (Transport, error)
}

// canceled is the panic value mailbox operations raise when the run's
// context is cancelled while a process is blocked in (or enters) a
// transport operation. It unwinds the process goroutine; spmd.World.Run
// recovers it and reports ctx.Err() instead of a process panic.
type canceled struct{ err error }

// AsCanceled reports whether a recovered panic value is the cancellation
// sentinel raised by a transport operation, and returns the originating
// context error when it is.
func AsCanceled(r any) (error, bool) {
	if c, ok := r.(canceled); ok {
		return c.err, true
	}
	return nil, false
}

// Canceled returns the sentinel panic value carrying err, for Transport
// implementations outside this package (backend/dist): panicking with
// Canceled(err) from a transport operation unwinds the process goroutine
// and makes spmd.World.Run report err instead of a process panic. Besides
// context cancellation, transports use it for substrate failures a
// process cannot recover from — a lost worker connection fails the run as
// an error, not a hang or a panic.
func Canceled(err error) any { return canceled{err} }

var (
	registryMu sync.RWMutex
	registry   = map[string]Runner{}
)

// Register makes a Runner available to ByName. It panics on a duplicate
// name: backends are identities, not overridable configuration.
func Register(r Runner) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[r.Name()]; dup {
		panic("backend: duplicate runner " + r.Name())
	}
	registry[r.Name()] = r
}

// ByName looks up a registered backend ("sim", "real").
func ByName(name string) (Runner, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	r, ok := registry[name]
	return r, ok
}

// Names returns all registered backend names, sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Default returns the backend programs run on when none is chosen
// explicitly: the virtual-time simulator.
func Default() Runner { return Sim() }
