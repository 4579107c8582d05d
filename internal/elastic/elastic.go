// Package elastic is the fault-tolerant execution backend: an SPMD world
// whose ranks are tasks on a work queue rather than pinned processes.
//
// The sim, real, and dist backends bind each rank to one goroutine or
// one OS process for the life of the run; a lost dist worker therefore
// fails the whole world (PR 4's crash monitor). This package turns that
// error path into recovery, productionizing the archetypes paper's
// master/worker pattern as a runner. The coordinator owns the world's
// authoritative state — per-rank shadow queues of undelivered messages
// and a deterministic per-rank delivery log — and leases each rank to
// one of a pool of worker endpoints:
//
//	coordinator ── enq (fire-and-forget) ──> worker hosting dst's inbox
//	coordinator ── pop (request/response) ── worker hosting dst's inbox
//
// Rank bodies execute as goroutines in the coordinating process (as on
// dist); every payload leaves the coordinator as spmd wire-codec bytes,
// is stored in the hosting worker's inbox, and comes back on delivery.
// When a worker dies — detected by connection I/O errors, missed
// heartbeats, or a spawned process exiting — its hosted ranks are
// rescheduled onto any live worker: the rank body re-executes from the
// start, the delivery log replays every message it had already received
// (decoded fresh from the logged bytes), and already-performed sends are
// suppressed (not re-sent, not re-metered). Because rank bodies are
// deterministic, the re-execution reaches the crash point in the same
// state and continues live: the world completes with results and
// msg/byte meters bit-identical to an uninterrupted run.
//
// Elasticity cuts both ways: workers can also join mid-run — anything
// dialing the coordinator's listener with the world token attaches and
// immediately becomes leasable, pulling queued rank tasks. A worker that
// lost its connection redials with exponential backoff + jitter and
// rejoins as a fresh worker. A per-world recovery budget (max restarts
// per rank, overall recovery deadline) degrades pathological loops —
// e.g. a fault injector that kills every host — into a clean error
// instead of a livelock.
//
// Fault injection is first-class: WithInjector installs a
// faultinject.Injector evaluated after every completed rank operation
// ("elastic.rank.op", epoch = the rank's logical operation index), so
// tests and the chaos CI job kill a rank's host at a deterministic
// program point.
//
// Replay correctness requires what all registered archetype apps
// satisfy: rank bodies must be deterministic (no wall-clock or RecvAny
// scheduling decisions feeding results) and their writes into shared
// memory idempotent under re-execution (pure assignment of computed
// values, which re-execution repeats identically).
package elastic

import (
	"context"
	"fmt"
	"time"

	"repro/internal/backend"
	"repro/internal/faultinject"
	"repro/internal/machine"
)

// runner is the elastic backend: a Transport factory whose pool shape,
// liveness parameters, and recovery budget are fixed at construction.
// The registered default self-spawns localhost worker processes.
type runner struct {
	// workers is the pool size at world start (0 = min(n, 4)).
	workers int
	// local runs workers as goroutines in this process (dialing the
	// coordinator over loopback TCP) instead of spawning OS processes —
	// the test and bench configuration: both protocol sides run under
	// the race detector, and "killing" a worker is closing its
	// connection.
	local bool
	// reconnect lets local workers redial after losing their connection
	// (spawned workers always reconnect; see Join).
	reconnect bool
	// external expects the starting pool to attach from outside (via
	// onAttach or archworker -elastic -join) instead of being spawned.
	external bool
	// hbInterval/hbMiss: ping cadence and consecutive misses before a
	// worker is declared dead.
	hbInterval time.Duration
	hbMiss     int
	// maxRestarts bounds re-executions per rank; deadline bounds the
	// world's total time after its first restart.
	maxRestarts int
	deadline    time.Duration
	inj         *faultinject.Injector
	observer    func(Stats)
	onStarve    func(addr, token string)
	onAttach    func(addr, token string)
}

// Stats summarizes one run's recovery activity, reported through
// WithObserver when the world finishes.
type Stats struct {
	// Workers counts distinct worker endpoints that ever attached.
	Workers int
	// DeclaredDead counts workers declared dead mid-run.
	DeclaredDead int
	// Restarts counts rank re-executions (a rank rescheduled twice
	// counts twice).
	Restarts int
	// JoinPickups counts rescheduled rank attempts leased to workers
	// that attached after world start — the mid-run join payoff.
	JoinPickups int
}

// Option configures an elastic runner.
type Option func(*runner)

// WithWorkerCount sets the worker-pool size at world start (default
// min(n, 4); the pool can grow by mid-run joins regardless).
func WithWorkerCount(w int) Option {
	return func(r *runner) { r.workers = w }
}

// WithLocalWorkers runs the starting pool as goroutines in this process
// over loopback TCP instead of spawning OS processes. reconnect controls
// whether a local worker redials after losing its connection (rejoining
// as a fresh worker), which is what spawned workers always do.
func WithLocalWorkers(reconnect bool) Option {
	return func(r *runner) { r.local = true; r.reconnect = reconnect }
}

// WithHeartbeat sets the coordinator→worker ping interval and the number
// of consecutive misses after which a silent worker is declared dead
// (defaults 500ms and 4: a worker that stops responding is dead within
// ~2s even if its TCP connection stays open).
func WithHeartbeat(interval time.Duration, miss int) Option {
	return func(r *runner) { r.hbInterval, r.hbMiss = interval, miss }
}

// WithRecoveryBudget bounds recovery: at most maxRestarts re-executions
// per rank, and at most deadline of wall-clock time after the world's
// first restart (defaults 3 and 2min). Exceeding either fails the world
// with a clean error instead of looping.
func WithRecoveryBudget(maxRestarts int, deadline time.Duration) Option {
	return func(r *runner) { r.maxRestarts, r.deadline = maxRestarts, deadline }
}

// WithInjector installs a fault injector evaluated at "elastic.rank.op"
// after every completed rank operation; a Kill kills the host worker of
// the matched rank at that deterministic program point.
func WithInjector(in *faultinject.Injector) Option {
	return func(r *runner) { r.inj = in }
}

// WithObserver reports the run's recovery stats when the world finishes.
func WithObserver(f func(Stats)) Option {
	return func(r *runner) { r.observer = f }
}

// WithExternalWorkers expects the starting pool (WithWorkerCount) to
// attach from outside — workers the caller starts itself, typically via
// WithAttachHook or archworker -elastic -join — instead of spawning
// processes or goroutines. The attach barrier still applies.
func WithExternalWorkers() Option {
	return func(r *runner) { r.external = true }
}

// WithAttachHook calls f as soon as the coordinator's control listener is
// up, before the attach barrier, with the listen address and world token
// — everything a worker needs to Join. Tests and external supervisors
// use it to bring their own workers.
func WithAttachHook(f func(addr, token string)) Option {
	return func(r *runner) { r.onAttach = f }
}

// WithStarveHook calls f (once) when the scheduler has queued rank tasks
// and zero live workers: the moment a mid-run join is the only way
// forward. f receives the coordinator's listen address and world token —
// what a late worker needs to Join. Tests use this to exercise mid-run
// joins deterministically.
func WithStarveHook(f func(addr, token string)) Option {
	return func(r *runner) { r.onStarve = f }
}

// New builds an elastic backend runner. The zero configuration — what
// the registry's "elastic" entry uses — self-spawns localhost worker
// processes by re-executing the current binary, so any binary whose main
// calls MaybeWorker supports it out of the box.
func New(opts ...Option) backend.Runner {
	r := &runner{
		reconnect:   true,
		hbInterval:  500 * time.Millisecond,
		hbMiss:      4,
		maxRestarts: 3,
		deadline:    2 * time.Minute,
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

func init() { backend.Register(New()) }

func (r *runner) Name() string { return "elastic" }

// Virtual reports false: elastic runs are wall-clock measurements over
// real worker endpoints, serialized in sweeps like real and dist runs.
func (r *runner) Virtual() bool { return false }

func (r *runner) NewTransport(ctx context.Context, n int, m *machine.Model) (backend.Transport, error) {
	t, err := r.start(ctx, n)
	if err != nil {
		return nil, fmt.Errorf("elastic: world start: %w", err)
	}
	return t, nil
}

// poolSize resolves the starting worker-pool size for an n-rank world.
func (r *runner) poolSize(n int) int {
	if r.workers > 0 {
		return r.workers
	}
	if n < 4 {
		return n
	}
	return 4
}
