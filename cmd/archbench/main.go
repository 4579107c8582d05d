// Command archbench regenerates the evaluation figures of "Parallel
// Program Archetypes" (Massingill & Chandy, 1999) on simulated machines.
//
// Usage:
//
//	archbench -list
//	archbench -fig 6            # one figure
//	archbench -all              # everything
//	archbench -fig 16 -scale 0.5 -maxprocs 36 -dir /tmp
//	archbench -fig 12 -backend real   # run at hardware speed
//	archbench -json BENCH_fabric.json # record the host-cost baseline
//
// Table figures print speedup tables; image figures (19, 20, 21) write
// PGM files into -dir. -scale shrinks the workloads for quick runs.
// -backend selects the execution substrate: "sim" (the default
// virtual-time simulator, deterministic paper-shaped curves) or "real"
// (goroutines over native channels, wall-clock makespans). Sweeps run
// concurrently through the internal/sched worker pool on either backend;
// interrupting the process (Ctrl-C) cancels the sweep's context and stops
// it mid-flight. Figures dispatch off the figures registry, backends off
// the backend registry — there are no hand-maintained tables here.
//
// -json switches to host-cost mode: instead of simulated figures it runs
// the internal/hostbench suite (the Real* microbenchmarks plus two timed
// figure sweeps) and writes the measurements to the given file. The
// committed BENCH_fabric.json is this mode's output; CI regenerates it
// every run and uploads it as an artifact, so the fabric's host cost has
// a recorded trajectory. With -backend=dist the host-cost mode runs the
// Dist* suite instead — the same fabric micros across worker OS
// processes over loopback TCP (workers self-spawn from this binary) —
// producing the committed BENCH_dist.json:
//
//	archbench -json BENCH_dist.json -backend=dist
//
// -family selects the host-cost family: "micro" (the latency suites
// above); "stream", the streaming subsystem's sustained-throughput
// matrix (elements/sec and msgs/sec at varying batch sizes and farm
// widths across all three backends), producing the committed
// BENCH_stream.json (-scale shrinks the stream element counts for smoke
// runs); or "elastic", the fault-tolerant backend's recovery-latency
// table (wall-clock cost of an injected worker kill versus the
// uninterrupted run, with meter parity re-asserted), producing the
// committed BENCH_elastic.json:
//
//	archbench -json BENCH_stream.json -family stream
//	archbench -json BENCH_elastic.json -family elastic
//
// -compare turns a -json run into a regression gate: after writing the
// fresh report it is checked against the given baseline file, and the
// process exits 1 if any gated micro's ns/op exceeds the baseline by
// more than -slack (default 20%, headroom for host noise). -gate
// restricts the check to named benchmarks — CI gates the dist data plane
// on its two latency-critical micros rather than the noisier
// startup-dominated ones:
//
//	archbench -json fresh.json -backend=dist \
//	    -compare BENCH_dist.json -gate DistPingPong,DistAllReduce
//
// A baseline recorded at a different GOMAXPROCS is refused, not compared:
// the committed baselines are "gomaxprocs": 1, so gate runs set
// GOMAXPROCS=1 in the environment.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"repro/arch"
	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/hostbench"
	"repro/internal/obs"
)

func main() {
	dist.MaybeWorker()
	var (
		fig      = flag.String("fig", "", "figure ID to run (see -list)")
		all      = flag.Bool("all", false, "run every figure")
		list     = flag.Bool("list", false, "list available figures")
		scale    = flag.Float64("scale", 1, "workload scale factor (1 = paper-shaped default)")
		maxProcs = flag.Int("maxprocs", 0, "cap the simulated processor sweep (0 = figure default)")
		dir      = flag.String("dir", ".", "output directory for image figures")
		csvOut   = flag.Bool("csv", false, "also write <dir>/fig<ID>.csv for table figures")
		backName = flag.String("backend", "sim", "execution backend: "+strings.Join(arch.BackendNames(), ", "))
		jsonOut  = flag.String("json", "", "write the host-cost benchmark baseline to this file and exit")
		family   = flag.String("family", "micro", `host-cost family for -json: "micro" (latency suite), "stream" (sustained throughput matrix), or "elastic" (recovery-latency table)`)
		compare  = flag.String("compare", "", "with -json: baseline BENCH_*.json to gate the fresh micros against (exit 1 on regression, or when it was recorded at another GOMAXPROCS)")
		gate     = flag.String("gate", "", "with -compare: comma-separated benchmark names to gate on (default: all shared micros)")
		slack    = flag.Float64("slack", 0.20, "with -compare: allowed fractional slowdown before a micro counts as regressed")
		traceOut = flag.String("trace", "", "record figure runs (first 256) and write Chrome trace-event JSON to this path")
	)
	flag.Parse()

	if *jsonOut != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		collect := hostbench.Collect
		switch *family {
		case "micro":
			if *backName == "dist" {
				collect = hostbench.CollectDist
			}
		case "stream":
			collect = func(ctx context.Context, log io.Writer) (*hostbench.Report, error) {
				return hostbench.CollectStream(ctx, log, *scale)
			}
		case "elastic":
			collect = hostbench.CollectElastic
		default:
			fmt.Fprintf(os.Stderr, "archbench: unknown family %q (have: elastic, micro, stream)\n", *family)
			os.Exit(2)
		}
		rep, err := collect(ctx, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "archbench: host benchmarks: %v\n", err)
			os.Exit(1)
		}
		out, err := os.Create(*jsonOut)
		if err == nil {
			err = rep.WriteJSON(out)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "archbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
		if *compare != "" {
			in, err := os.Open(*compare)
			var base *hostbench.Report
			if err == nil {
				base, err = hostbench.ReadJSON(in)
				in.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "archbench: %v\n", err)
				os.Exit(1)
			}
			var names []string
			if *gate != "" {
				names = strings.Split(*gate, ",")
			}
			if err := hostbench.CompareMicros(rep, base, names, *slack); err != nil {
				fmt.Fprintf(os.Stderr, "archbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("no regressions against %s\n", *compare)
		}
		return
	}

	if *list {
		for _, f := range figures.All() {
			fmt.Printf("%-4s %s\n", f.ID, f.Title)
		}
		return
	}

	back, err := arch.ResolveBackend(*backName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archbench: %v\n", err)
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var col *obs.Collector
	if *traceOut != "" {
		col = obs.NewCollector()
		ctx = obs.NewContext(ctx, col)
	}

	opts := figures.Options{Ctx: ctx, Out: os.Stdout, Dir: *dir, Scale: *scale, MaxProcs: *maxProcs, Backend: back}
	run := func(f figures.Figure) {
		res, err := f.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "archbench: figure %s: %v\n", f.ID, err)
			os.Exit(1)
		}
		if *csvOut && res != nil && len(res.Curves) > 0 {
			path := filepath.Join(*dir, "fig"+f.ID+".csv")
			out, err := os.Create(path)
			if err == nil {
				err = core.WriteCSV(out, res.Curves...)
				out.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "archbench: csv for figure %s: %v\n", f.ID, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", path)
		}
		fmt.Println()
	}

	switch {
	case *all:
		for _, f := range figures.All() {
			run(f)
		}
	case *fig != "":
		f, ok := figures.ByID(*fig)
		if !ok {
			fmt.Fprintf(os.Stderr, "archbench: unknown figure %q (use -list)\n", *fig)
			os.Exit(2)
		}
		run(f)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if col != nil {
		if err := col.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "archbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (open in ui.perfetto.dev)\n", *traceOut)
	}
}
