package repro

import (
	"context"
	"sort"
	"testing"

	"repro/arch"
	"repro/internal/backend"
	"repro/internal/bnb"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/hostbench"
	"repro/internal/machine"
	"repro/internal/poisson"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

// The benchmarks below regenerate the paper's data figures, one per
// Benchmark function, at a reduced scale so `go test -bench=.` completes
// in minutes. Each reports the figure's headline number as a custom
// metric (simulated speedup at the figure's top processor count, or the
// relevant ratio). Run cmd/archbench for the full-scale tables.

// benchFigure runs a registered figure once per iteration and reports the
// given curve metric.
func benchFigure(b *testing.B, id string, scale float64, maxProcs int, metric func(*figures.Result) (string, float64)) {
	f, ok := figures.ByID(id)
	if !ok {
		b.Fatalf("figure %s not registered", id)
	}
	opts := figures.Options{Scale: scale, MaxProcs: maxProcs, Dir: b.TempDir()}
	for i := 0; i < b.N; i++ {
		res, err := f.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && metric != nil {
			name, v := metric(res)
			b.ReportMetric(v, name)
		}
	}
}

func topSpeedup(curveIdx int) func(*figures.Result) (string, float64) {
	return func(r *figures.Result) (string, float64) {
		c := r.Curves[curveIdx]
		return "speedup@top", c.Points[len(c.Points)-1].Speedup
	}
}

// BenchmarkFig06Mergesort regenerates Figure 6 (traditional vs one-deep
// mergesort on the Intel Delta model).
func BenchmarkFig06Mergesort(b *testing.B) {
	benchFigure(b, "6", 0.25, 64, func(r *figures.Result) (string, float64) {
		trad, oneDeep := r.Curves[0], r.Curves[1]
		return "onedeep/traditional@64", oneDeep.SpeedupAt(64) / trad.SpeedupAt(64)
	})
}

// BenchmarkFig12FFT2D regenerates Figure 12 (2D FFT on the IBM SP model).
func BenchmarkFig12FFT2D(b *testing.B) {
	benchFigure(b, "12", 0.5, 32, topSpeedup(0))
}

// BenchmarkFig15Poisson regenerates Figure 15 (Poisson solver on the IBM
// SP model).
func BenchmarkFig15Poisson(b *testing.B) {
	benchFigure(b, "15", 0.5, 36, topSpeedup(0))
}

// BenchmarkFig16CFD regenerates Figure 16 (2D CFD on the Intel Delta
// model).
func BenchmarkFig16CFD(b *testing.B) {
	benchFigure(b, "16", 0.33, 100, topSpeedup(0))
}

// BenchmarkFig17FDTD regenerates Figure 17 (3D FDTD on the IBM SP model;
// the metric is the 18-vs-16-processor ratio, below 1 when the curve
// rolls over as in the paper).
func BenchmarkFig17FDTD(b *testing.B) {
	benchFigure(b, "17", 1, 18, func(r *figures.Result) (string, float64) {
		c := r.Curves[0]
		return "s18/s16", c.SpeedupAt(18) / c.SpeedupAt(16)
	})
}

// BenchmarkFig18Swirl regenerates Figure 18 (spectral code with the
// paging model; the metric is the relative speedup at twice the base —
// above 2 means the super-linear anomaly reproduced).
func BenchmarkFig18Swirl(b *testing.B) {
	benchFigure(b, "18", 0.5, 40, func(r *figures.Result) (string, float64) {
		return "rel-speedup@2x", r.Curves[0].SpeedupAt(10)
	})
}

// BenchmarkFig19ShockImage regenerates the Figure 19 density image.
func BenchmarkFig19ShockImage(b *testing.B) { benchFigure(b, "19", 0.25, 0, nil) }

// BenchmarkFig20ShockPanels regenerates the Figure 20 panels.
func BenchmarkFig20ShockPanels(b *testing.B) { benchFigure(b, "20", 0.25, 0, nil) }

// BenchmarkFig21SwirlImage regenerates the Figure 21 image.
func BenchmarkFig21SwirlImage(b *testing.B) { benchFigure(b, "21", 0.5, 0, nil) }

// BenchmarkAblationReduce compares recursive-doubling and
// gather/broadcast reductions (DESIGN.md ablation A1).
func BenchmarkAblationReduce(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := figures.AblationReduce([]int{4, 16, 64}, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[len(rows)-1].B/rows[len(rows)-1].A, "gb/rd@64")
		}
	}
}

// BenchmarkAblationParams compares centralized and replicated splitter
// strategies (A2).
func BenchmarkAblationParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationParams(1<<16, []int{16, 64}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLayout compares 1D and 2D Poisson decompositions (A3).
func BenchmarkAblationLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationLayout(96, 20, []int{16, 36}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAllGather compares the §2.4 all-gather formulations
// (A4).
func BenchmarkAblationAllGather(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := figures.AblationAllGather([]int{4, 16, 64}, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineSweep runs the A5 cross-architecture ablation.
func BenchmarkMachineSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		curves, err := figures.MachineSweep(1<<15, []int{1, 16, 64})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(curves[3].SpeedupAt(64)/curves[2].SpeedupAt(64), "smp/workstations@64")
		}
	}
}

// BenchmarkKnapsackStrategies measures both parallel branch-and-bound
// strategies on the same instance.
func BenchmarkKnapsackStrategies(b *testing.B) {
	items := bnb.RandomItems(22, 30, 41)
	const capacity = 180
	spec := bnb.Knapsack(items, capacity)
	for i := 0; i < b.N; i++ {
		var sync, async float64
		res, err := core.Simulate(8, machine.IBMSP(), func(p *spmd.Proc) {
			bnb.SolveSync(p, spec, 16)
		})
		if err != nil {
			b.Fatal(err)
		}
		sync = res.Makespan
		res, err = core.Simulate(8, machine.IBMSP(), func(p *spmd.Proc) {
			bnb.SolveAsync(p, spec, 64)
		})
		if err != nil {
			b.Fatal(err)
		}
		async = res.Makespan
		if i == 0 {
			b.ReportMetric(sync/async, "sync/async-time")
		}
	}
}

// --- Host-machine microbenchmarks (real time, not simulated): the
// building blocks whose real cost dominates test runtime. The bodies
// live in internal/hostbench so `go test -bench` here and the
// BENCH_fabric.json baseline emitted by `archbench -json` measure the
// same code; CI runs these with -benchtime=1x as a smoke gate.

// BenchmarkRealSequentialMergesort measures the real mergesort.
func BenchmarkRealSequentialMergesort(b *testing.B) { hostbench.BenchSequentialMergesort(b) }

// BenchmarkRealStdlibSort is the stdlib reference for the above.
func BenchmarkRealStdlibSort(b *testing.B) {
	data := sortapp.RandomInts(1<<17, 5)
	buf := make([]int32, len(data))
	for i := 0; i < b.N; i++ {
		copy(buf, data)
		sort.Slice(buf, func(x, y int) bool { return buf[x] < buf[y] })
	}
}

// BenchmarkRealOneDeepWorld measures the end-to-end host cost of one
// simulated 16-process one-deep mergesort world (goroutines + fabric +
// real sorting).
func BenchmarkRealOneDeepWorld(b *testing.B) { hostbench.BenchOneDeepWorld(b) }

// BenchmarkRealAllReduce measures the host cost of the recursive-doubling
// all-reduce across 32 goroutine processes.
func BenchmarkRealAllReduce(b *testing.B) { hostbench.BenchAllReduce(b) }

// BenchmarkRealWorldConstruction256 measures pure fabric construction and
// teardown for a 256-process world.
func BenchmarkRealWorldConstruction256(b *testing.B) { hostbench.BenchWorldConstruction256(b) }

// BenchmarkRealPingPong measures per-message latency on the shared-memory
// backend (1000 round trips per op): the in-process half of the
// loopback-vs-shared-memory latency table in EXPERIMENTS.md.
func BenchmarkRealPingPong(b *testing.B) { hostbench.BenchRealPingPong(b) }

// BenchmarkRealWakeup measures what a receive costs when the peer is
// computing on another thread (1000 exchanges per op, ~20 µs of compute
// per rank between them): the wake-up rung of the cost ladder in
// EXPERIMENTS.md, where RealPingPong is the same-processor hand-off.
func BenchmarkRealWakeup(b *testing.B) { hostbench.BenchRealWakeup(b) }

// BenchmarkSimHaloExchange16 is the park path's guard: poisson@17 on a
// 16-rank sim world, the shape of archserve's cold requests. A sim world
// never spins, so each of its 70,512 messages a solve is a receive that
// may park and a send that may wake it. RealWakeup at -cpu 1 is the same
// guard on the wall-clock backend.
func BenchmarkSimHaloExchange16(b *testing.B) {
	pr := poisson.Manufactured(17, 17, 1e-7, 20000)
	s := arch.NewSettings(arch.WithProcs(16), arch.WithBackend(backend.Sim()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.RunWith(context.Background(), poisson.Program(), s, pr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Distributed-backend micros: the same fabric measurements with every
// message crossing OS-process boundaries over loopback TCP. Worker
// processes self-spawn from this test binary (see TestMain); the bodies
// live in internal/hostbench so these and the BENCH_dist.json baseline
// emitted by `archbench -json -backend=dist` measure the same code.

// BenchmarkDistWorldStartup4 measures spawning, handshaking, and tearing
// down a 4-worker dist world (pure substrate cost).
func BenchmarkDistWorldStartup4(b *testing.B) { hostbench.BenchDistWorldStartup(b) }

// BenchmarkDistOneDeepWorld measures a 4-process one-deep mergesort with
// all messages over loopback TCP.
func BenchmarkDistOneDeepWorld(b *testing.B) { hostbench.BenchDistOneDeepWorld(b) }

// BenchmarkDistAllReduce measures the recursive-doubling all-reduce
// across 8 worker processes.
func BenchmarkDistAllReduce(b *testing.B) { hostbench.BenchDistAllReduce(b) }

// BenchmarkDistPingPong measures per-message latency across worker
// processes over loopback TCP (1000 round trips per op).
func BenchmarkDistPingPong(b *testing.B) { hostbench.BenchDistPingPong(b) }
