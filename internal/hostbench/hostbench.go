// Package hostbench measures the reproduction's host cost — real
// nanoseconds and allocations, not simulated seconds — so the message
// fabric and the compute kernels have a recorded performance trajectory.
//
// The package has two halves. The Micro list defines the Real*
// microbenchmarks as ordinary testing.B bodies; the repository's
// bench_test.go runs them under `go test -bench` and cmd/archbench runs
// the same bodies through testing.Benchmark for its -json mode, so the
// numbers in BENCH_fabric.json and the numbers a developer sees locally
// come from one source of truth. Collect assembles a Report (micro
// results plus wall-clock timings of two figure sweeps) and WriteJSON
// serializes it; CI uploads the file as the run's perf artifact.
package hostbench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/machine"
	"repro/internal/onedeep"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

// Micro is one host-cost microbenchmark. The body returns an error
// instead of calling b.Fatal: under `go test` the exported Bench*
// wrappers turn errors into test failures, while Collect — which drives
// the same bodies through testing.Benchmark inside a plain binary,
// where b.Fatal would dereference a nil test context — reports them as
// ordinary errors.
type Micro struct {
	Name string
	body func(b *testing.B) error
}

// Micros returns the Real* microbenchmark suite in report order.
func Micros() []Micro {
	return []Micro{
		{"RealSequentialMergesort", benchSequentialMergesort},
		{"RealOneDeepWorld", benchOneDeepWorld},
		{"RealAllReduce", benchAllReduce},
		{"RealWorldConstruction256", benchWorldConstruction256},
		{"RealPingPong", benchRealPingPong},
		{"RealWakeup", benchRealWakeup},
	}
}

// DistMicros returns the Dist* suite: the distributed backend's
// equivalents of the Real* fabric micros, run with self-spawned
// localhost worker processes (unix-domain control sockets) from the
// process's worker pool — iterations after the first reuse warm worker
// processes, so the numbers measure the message fabric and the
// per-world handshake rather than process spawns. World sizes are
// smaller than the Real* ones; the ping-pong micro is the directly
// comparable pair (same program, same world size, substrate swapped),
// which is what the loopback-vs-shared-memory latency table in
// EXPERIMENTS.md is built from.
func DistMicros() []Micro {
	return []Micro{
		{"DistWorldStartup4", benchDistWorldStartup},
		{"DistOneDeepWorld", benchDistOneDeepWorld},
		{"DistAllReduce", benchDistAllReduce},
		{"DistPingPong", benchDistPingPong},
	}
}

// mustBench adapts an error-returning body to the `go test` driver.
func mustBench(b *testing.B, body func(b *testing.B) error) {
	if err := body(b); err != nil {
		b.Fatal(err)
	}
}

// BenchSequentialMergesort measures the real sequential mergesort kernel
// on 2^17 random int32 values.
func BenchSequentialMergesort(b *testing.B) { mustBench(b, benchSequentialMergesort) }

func benchSequentialMergesort(b *testing.B) error {
	data := sortapp.RandomInts(1<<17, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortapp.MergeSort(core.Nop, data)
	}
	return nil
}

// BenchOneDeepWorld measures the end-to-end host cost of one simulated
// 16-process one-deep mergesort world (goroutines + fabric + real
// sorting).
func BenchOneDeepWorld(b *testing.B) { mustBench(b, benchOneDeepWorld) }

func benchOneDeepWorld(b *testing.B) error {
	data := sortapp.RandomInts(1<<16, 6)
	spec := sortapp.OneDeepMergesort(onedeep.Centralized)
	blocks := sortapp.BlockDistribute(data, 16)
	model := machine.IntelDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(16, model, func(p *spmd.Proc) {
			onedeep.RunSPMD(p, spec, blocks[p.Rank()])
		}); err != nil {
			return err
		}
	}
	return nil
}

// BenchAllReduce measures the host cost of the recursive-doubling
// all-reduce across 32 goroutine processes.
func BenchAllReduce(b *testing.B) { mustBench(b, benchAllReduce) }

func benchAllReduce(b *testing.B) error {
	model := machine.IBMSP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(32, model, func(p *spmd.Proc) {
			collective.AllReduce(p, float64(p.Rank()), math.Max)
		}); err != nil {
			return err
		}
	}
	return nil
}

// BenchWorldConstruction256 measures building and tearing down a
// 256-process world whose processes do nothing: pure fabric construction
// cost, the term that used to dominate large sweeps.
func BenchWorldConstruction256(b *testing.B) { mustBench(b, benchWorldConstruction256) }

func benchWorldConstruction256(b *testing.B) error {
	model := machine.IBMSP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(256, model, func(p *spmd.Proc) {}); err != nil {
			return err
		}
	}
	return nil
}

// pingPongRounds is the number of send/recv round trips one ping-pong
// benchmark iteration performs; per-message one-way latency is
// ns_per_op / (2 * pingPongRounds).
const pingPongRounds = 1000

// benchPingPong runs a 2-process ping-pong of a one-word payload on the
// given backend: the standard latency microbenchmark, identical program
// on every substrate.
func benchPingPong(b *testing.B, r backend.Runner) error {
	model := machine.IBMSP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), r, 2, model, func(p *spmd.Proc) {
			peer := 1 - p.Rank()
			msg := []float64{1}
			for round := 0; round < pingPongRounds; round++ {
				if p.Rank() == 0 {
					spmd.SendT(p, peer, 1, msg)
					spmd.Recv[[]float64](p, peer, 1)
				} else {
					spmd.Recv[[]float64](p, peer, 1)
					spmd.SendT(p, peer, 1, msg)
				}
			}
		}); err != nil {
			return err
		}
	}
	return nil
}

// BenchRealPingPong measures per-message latency on the shared-memory
// backend (1000 round trips per op).
func BenchRealPingPong(b *testing.B) { mustBench(b, benchRealPingPong) }

func benchRealPingPong(b *testing.B) error { return benchPingPong(b, backend.Real()) }

// wakeupWork is the arithmetic each rank of the wake-up micro does between
// messages: a dependent multiply-add chain of about 20 µs on the reference
// box, the size of one poisson@41 half-grid sweep.
const wakeupWork = 8000

// BenchRealWakeup is the wake-up rung of the per-message cost ladder:
// two ranks each compute ~20 µs, send the peer one word and receive the
// peer's (1000 exchanges per op) — the shape of a halo exchange between
// symmetric ranks. Unlike the back-to-back ping-pong, whose receiver is
// handed the goroutine on the sender's own processor, a rank here finds
// its peer still computing on another thread, so what it pays on top of
// the compute is the fabric's wait: a park and a cross-thread wake-up, or
// the few µs of skew when the world fits its processors and spins.
func BenchRealWakeup(b *testing.B) { mustBench(b, benchRealWakeup) }

// wakeupSink keeps the compiler from discarding the micro's compute.
var wakeupSink [2]float64

func benchRealWakeup(b *testing.B) error {
	model := machine.IBMSP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), backend.Real(), 2, model, func(p *spmd.Proc) {
			peer := 1 - p.Rank()
			msg := []float64{1}
			x := float64(p.Rank())
			for round := 0; round < pingPongRounds; round++ {
				for k := 0; k < wakeupWork; k++ {
					x = x*0.999999 + 1e-6
				}
				spmd.SendT(p, peer, 1, msg)
				spmd.Recv[[]float64](p, peer, 1)
			}
			wakeupSink[p.Rank()] = x
		}); err != nil {
			return err
		}
	}
	return nil
}

// BenchDistPingPong measures per-message latency across worker processes
// over loopback (1000 round trips per op, pooled-world acquisition
// included).
func BenchDistPingPong(b *testing.B) { mustBench(b, benchDistPingPong) }

func benchDistPingPong(b *testing.B) error {
	return benchPingPong(b, dist.New())
}

// BenchDistWorldStartup measures acquiring, handshaking, and releasing a
// 4-worker dist world whose processes do nothing: the distributed
// analogue of RealWorldConstruction256 (pure substrate cost). From the
// worker pool, iterations after the first measure the warm path — a
// hello/assign/ready handshake per worker instead of a process spawn.
func BenchDistWorldStartup(b *testing.B) { mustBench(b, benchDistWorldStartup) }

func benchDistWorldStartup(b *testing.B) error {
	model := machine.IBMSP()
	r := dist.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), r, 4, model, func(p *spmd.Proc) {}); err != nil {
			return err
		}
	}
	return nil
}

// BenchDistOneDeepWorld measures an end-to-end 4-process one-deep
// mergesort with every message crossing process boundaries (the
// distributed equivalent of RealOneDeepWorld, at a smaller world and
// input because each iteration spawns real processes).
func BenchDistOneDeepWorld(b *testing.B) { mustBench(b, benchDistOneDeepWorld) }

func benchDistOneDeepWorld(b *testing.B) error {
	data := sortapp.RandomInts(1<<14, 6)
	spec := sortapp.OneDeepMergesort(onedeep.Centralized)
	blocks := sortapp.BlockDistribute(data, 4)
	model := machine.IntelDelta()
	r := dist.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), r, 4, model, func(p *spmd.Proc) {
			onedeep.RunSPMD(p, spec, blocks[p.Rank()])
		}); err != nil {
			return err
		}
	}
	return nil
}

// BenchDistAllReduce measures the recursive-doubling all-reduce across 8
// worker processes over loopback (the distributed equivalent of
// RealAllReduce's 32-goroutine world).
func BenchDistAllReduce(b *testing.B) { mustBench(b, benchDistAllReduce) }

func benchDistAllReduce(b *testing.B) error {
	model := machine.IBMSP()
	r := dist.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), r, 8, model, func(p *spmd.Proc) {
			collective.AllReduce(p, float64(p.Rank()), math.Max)
		}); err != nil {
			return err
		}
	}
	return nil
}

// sweepSpec is one wall-clock figure sweep of the report: a figure run
// end to end through the concurrent scheduler at reduced scale.
type sweepSpec struct {
	figure   string
	scale    float64
	maxProcs int
}

func sweepSpecs() []sweepSpec {
	return []sweepSpec{
		{figure: "6", scale: 0.25, maxProcs: 64},
		{figure: "15", scale: 0.5, maxProcs: 36},
	}
}

// MicroResult is one microbenchmark's measurement.
type MicroResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// SweepResult is one figure sweep's wall-clock measurement.
type SweepResult struct {
	Figure   string  `json:"figure"`
	Scale    float64 `json:"scale"`
	MaxProcs int     `json:"max_procs"`
	Seconds  float64 `json:"seconds"`
}

// Report is one host-cost baseline as serialized to the committed
// BENCH_*.json files: latency micros and figure sweeps
// (BENCH_fabric.json, BENCH_dist.json), the streaming throughput matrix
// (BENCH_stream.json), or the elastic recovery-latency table
// (BENCH_elastic.json), whichever the collector filled.
type Report struct {
	GoVersion  string           `json:"go_version"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Micros     []MicroResult    `json:"micros,omitempty"`
	Sweeps     []SweepResult    `json:"sweeps,omitempty"`
	Streams    []StreamResult   `json:"streams,omitempty"`
	Recovery   []RecoveryResult `json:"recovery,omitempty"`
}

// Collect runs the default microbenchmark suite through
// testing.Benchmark and times the figure sweeps, reporting progress
// lines to log (nil suppresses them). Cancelling ctx stops between
// measurements and aborts a sweep in flight.
func Collect(ctx context.Context, log io.Writer) (*Report, error) {
	return collectSuite(ctx, log, Micros(), sweepSpecs())
}

// CollectDist runs the distributed-backend suite (see DistMicros); its
// output is the committed BENCH_dist.json baseline. The caller's binary
// must support dist self-spawn (main calls dist.MaybeWorker) — archbench
// does. No figure sweeps: dist figure sweeps would measure process spawn
// rates, not the fabric.
func CollectDist(ctx context.Context, log io.Writer) (*Report, error) {
	return collectSuite(ctx, log, DistMicros(), nil)
}

// microRounds is how many times collectSuite measures each micro,
// keeping the fastest round. Host interference (scheduler, cgroup
// throttling, co-tenant load) is strictly additive on these latency
// micros, so the minimum is the least-noisy estimator — it is what lets
// the CI overhead gates run at tight slack instead of absorbing
// run-to-run noise into the threshold.
const microRounds = 5

func collectSuite(ctx context.Context, log io.Writer, micros []Micro, sweeps []sweepSpec) (*Report, error) {
	if log == nil {
		log = io.Discard
	}
	rep := &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, m := range micros {
		var mr MicroResult
		for round := 0; round < microRounds; round++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// testing.Benchmark has no failure channel outside a test
			// binary (b.Fatal would nil-deref), so the body's error is
			// captured on the side: once set, remaining calibration
			// rounds return immediately and the error surfaces after
			// Benchmark returns.
			var benchErr error
			res := testing.Benchmark(func(b *testing.B) {
				if benchErr != nil {
					return
				}
				benchErr = m.body(b)
			})
			if benchErr != nil {
				return nil, fmt.Errorf("hostbench: %s: %w", m.Name, benchErr)
			}
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			if round == 0 || ns < mr.NsPerOp {
				mr = MicroResult{
					Name:        m.Name,
					NsPerOp:     ns,
					AllocsPerOp: int64(res.AllocsPerOp()),
					BytesPerOp:  int64(res.AllocedBytesPerOp()),
				}
			}
		}
		fmt.Fprintf(log, "%-26s %12.0f ns/op %8d B/op %6d allocs/op\n",
			mr.Name, mr.NsPerOp, mr.BytesPerOp, mr.AllocsPerOp)
		rep.Micros = append(rep.Micros, mr)
	}
	for _, s := range sweeps {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f, ok := figures.ByID(s.figure)
		if !ok {
			return nil, fmt.Errorf("hostbench: figure %s not registered", s.figure)
		}
		opts := figures.Options{
			Ctx: ctx, Out: io.Discard, Scale: s.scale,
			MaxProcs: s.maxProcs, Backend: backend.Sim(),
		}
		start := time.Now()
		if _, err := f.Run(opts); err != nil {
			return nil, fmt.Errorf("hostbench: figure %s sweep: %w", s.figure, err)
		}
		sr := SweepResult{Figure: s.figure, Scale: s.scale, MaxProcs: s.maxProcs, Seconds: time.Since(start).Seconds()}
		fmt.Fprintf(log, "figure %-3s sweep (scale %g, maxprocs %d) %10.3fs\n",
			sr.Figure, sr.Scale, sr.MaxProcs, sr.Seconds)
		rep.Sweeps = append(rep.Sweeps, sr)
	}
	return rep, nil
}

// WriteJSON serializes the report with stable indentation (the file is
// committed and diffed).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
