// Package repro is a from-scratch Go reproduction of "Parallel Program
// Archetypes" by Berna L. Massingill and K. Mani Chandy (IPPS 1999).
//
// A parallel program archetype combines a computational pattern with a
// parallelization strategy to produce a pattern of dataflow and
// communication. This repository implements the paper's two archetypes —
// one-deep divide and conquer (§2) and mesh-spectral (§3) — together with
// every substrate they need (an SPMD runtime with virtual-time machine
// models standing in for the paper's Intel Delta and IBM SP, a collective
// communication library, distributed grids) and every application the
// paper evaluates (mergesort, quicksort, skyline, convex hull, closest
// pair, 2D FFT, Poisson solver, compressible-flow CFD, 3D electromagnetic
// FDTD, a spectral swirling-flow code, and an airshed smog model).
//
// The public entry point is package arch: typed Program[In, Out] values
// (wrapping both version-1 parfor programs and version-2 SPMD programs),
// a context-aware option-based runner (arch.Run with WithProcs,
// WithMachine, WithBackend, WithMode, WithSize), and an application
// registry every app package self-registers into (populate it with
// `import _ "repro/arch/apps"`). Messaging is typed and self-metering:
// payload sizes are priced through spmd.BytesOf, from the one table that
// also encodes them for the wire (internal/spmd/payload.go; application
// types register there from their own packages, generic wrappers send an
// spmd.Wrapped, and nothing is priced by default), rather than
// hand-counted at call sites.
//
// Programs run on pluggable execution backends: the virtual-time
// simulator prices every run on a machine model's clocks (deterministic,
// paper-shaped curves); the real shared-memory backend runs the same
// program text as goroutines over native channels at hardware speed with
// wall-clock metering; and the distributed backend routes the same
// program's messages across worker OS processes over TCP (self-spawned
// localhost workers by default, attachable cmd/archworker processes
// otherwise); and the elastic policy of the same backend keeps a
// delivery-log checkpoint per rank, so a worker lost mid-run costs a
// re-execution of its rank on a replacement worker instead of failing
// the world — heartbeats declare silent workers dead, and a spare
// attached worker can join mid-run as the replacement. Computational
// results and message/byte meters are identical on all four (including
// elastic runs that survived a kill). The figures sweep each program over process
// counts concurrently through a bounded worker pool (sched.Points and
// Map); sweeps and runs are cancellable mid-flight through their
// context.
//
// The registry can also be served: cmd/archserve is a long-lived HTTP
// daemon (package internal/serve) accepting serialized run specs
// (arch.Spec), with bounded admission over the sched worker pool, a job
// table that answers identical requests with the one job, and a
// content-addressed persistent result cache (internal/rescache, keyed
// by SHA-256 of the canonical spec) that makes repeated requests
// near-free across process restarts. archdemo -remote is the matching
// client.
//
// Every backend is instrumented with a flight recorder (internal/obs):
// a run whose context carries an obs.Collector records typed events —
// sends/recvs with byte counts, barriers, dist batching, elastic
// recovery (leases, declared-dead, replay, suppressed resends),
// scheduler activity, injected faults — into per-rank lock-free ring
// buffers, exportable as Chrome trace-event JSON (archdemo -trace,
// archbench -trace, open in ui.perfetto.dev) and summarized on
// arch.Report. Without a collector the recorder is nil and recording
// is free; CI gates the disabled-path overhead against the committed
// benchmark baselines. archserve additionally exposes a Prometheus
// text endpoint (GET /metrics) and serves per-job traces for
// trace:true submissions (GET /runs/{id}/trace).
//
// Beyond batch runs, internal/stream adds the streaming archetype:
// elements flow through a typed stage graph with bounded per-stage
// buffers, credit-based backpressure (a stalled sink provably stalls
// the source), element batching, and order-restoring farm stages.
// Streaming apps are a first-class registry kind (arch.App.Kind,
// arch.RunAppStream/RunSpecStream with a windowed StreamObserver);
// archserve runs them as long-lived jobs with SSE progress, excluded
// from the result cache.
//
// Layout:
//
//	arch                  public facade: typed programs, option-based runs,
//	                      application registry, machine/backend resolvers
//	arch/apps             blank-import package registering every application
//	internal/core         the archetype method: ParFor (version-1 programs),
//	                      SPMD runs, speedup curves, cost metering
//	internal/machine      LogGP-style machine models (Delta, SP, paging)
//	internal/backend      pluggable execution backends: the Transport/Runner
//	                      seam, the virtual-time simulator, and the real
//	                      shared-memory backend (wall-clock metering)
//	internal/backend/dist distributed backend: worker OS processes over
//	                      sockets, registered as "dist" (fails fast) and
//	                      "elastic" (checkpoint/replay on replacement
//	                      workers); heartbeats, dial back-off, and faults
//	                      declared as data (kill/drop/delay at a
//	                      rank/epoch)
//	internal/elastic      only a MaybeWorker forward to dist, kept for the
//	                      benchmark harness that imports it
//	internal/obs          flight recorder: per-rank event rings behind a
//	                      context-carried collector seam (nil = free),
//	                      Chrome trace export, Prometheus text registry
//	internal/sched        concurrent sweep scheduler: a bounded worker pool
//	                      (Map) and the process-count sweep on it (Points)
//	internal/serve        the archetype service: HTTP/JSON submissions, SSE
//	                      progress, admission control, result deduplication
//	internal/rescache     content-addressed persistent result cache
//	                      (canonical spec -> SHA-256 -> atomic JSON blob)
//	internal/stream       streaming archetype runtime: typed stage graphs,
//	                      batching, credit backpressure, order-restoring
//	                      farm stages, windowed progress
//	internal/streamfft    streaming app: FFT frames through row/column farms
//	internal/streamhist   streaming app: windowed histogram aggregation
//	internal/spmd         SPMD process runtime over any backend; typed,
//	                      self-metering messaging (SendT, BytesOf)
//	internal/collective   broadcast/gather/scatter/all-to-all/reduce/barrier
//	internal/onedeep      one-deep divide-and-conquer archetype + the
//	                      traditional recursive baseline
//	internal/meshspectral distributed 2D/3D grids: ghost exchange,
//	                      redistribution, whole-block row/column ops,
//	                      globals, grid I/O
//	internal/<app>        the applications listed above, each registering
//	                      itself with the arch facade
//	internal/figures      regenerates every evaluation figure of the paper
//	internal/bnb          the nondeterministic branch-and-bound archetype
//	internal/perfmodel    closed-form performance models, simulator-validated
//	cmd/archbench         CLI for the figures
//	cmd/archdemo          registry-driven CLI running any application,
//	                      locally or against archserve (-remote)
//	cmd/archserve         the archetype service daemon
//	cmd/archworker        standalone worker (dist attach/join, elastic join)
//	examples/             eleven runnable walkthroughs; quickstart, sorting,
//	                      and poisson go through the arch facade
//
// The benchmarks in bench_test.go regenerate one figure each; see
// DESIGN.md for the experiment index and EXPERIMENTS.md for measured
// curves.
package repro
