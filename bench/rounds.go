package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"repro/arch"
	"repro/internal/obs"
)

// P2 is the rank count of every timed parallel run. It is a constant, not
// nproc, so metric names and values stay comparable on a host with more
// cores. Stream apps need 4 ranks (source, two stages, sink) and get 4.
const (
	P2          = 2
	streamRanks = 4
)

// opDeadline bounds every op: a hang becomes a counted failure. A run that
// has not returned abandonGrace after its context expired is abandoned.
const (
	opDeadline   = 20 * time.Second
	abandonGrace = 2 * time.Second
)

// op is one program run of a round, named in registry terms only, so
// backend refactors do not break the end-to-end path.
type op struct {
	app     string
	size    int
	procs   int
	backend string
	part    int    // 0: part A of the round, 1: part B
	layer   string // layer metric that takes this op's median wall time
}

func (o op) String() string { return fmt.Sprintf("%s@%d P=%d %s", o.app, o.size, o.procs, o.backend) }

// reference is what every timed run of an op must reproduce: the repo's
// bit-identical parity contract across backends.
type reference struct {
	summary string
	msgs    int64
	bytes   int64
}

// opResult is one timed run.
type opResult struct {
	wall    float64 // seconds around RunApp: what the caller waits for
	rep     arch.Report
	rates   []float64 // StreamWindow.Rate, stream apps only
	failed  bool
	timeout bool
}

// config is how long and how thoroughly one workload runs. The CLI uses
// the defaults; the smoke test shrinks everything but the problem sizes.
type config struct {
	seed       int64
	seconds    float64 // timed window; rounds run until it has passed
	minRounds  int     // at least this many timed rounds
	setupReps  int     // set-up is repeated and its median reported
	probeCalls int     // calls per probe batch
	roundReqs  int     // serve-mixed: requests per round
	traced     bool
	outDir     string  // trace files and cache dirs go here
	startup    float64 // seconds from the parent's spawn to main; zero in-process
}

// references runs every op once on sim.
func references(ops []op) (map[op]reference, error) {
	sim, err := arch.ResolveBackend("sim")
	if err != nil {
		return nil, err
	}
	refs := map[op]reference{}
	for _, o := range ops {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		summary, rep, err := arch.RunApp(ctx, o.app, arch.WithSize(o.size), arch.WithProcs(o.procs), arch.WithBackend(sim))
		cancel()
		if err != nil {
			return nil, fmt.Errorf("reference %s on sim: %w", o, err)
		}
		refs[o] = reference{summary, rep.Msgs, rep.Bytes}
	}
	return refs, nil
}

// runOp runs one op under the deadline and checks it against its reference.
// col and tr are nil in an untraced round.
func runOp(o op, ref reference, col *obs.Collector, tr *tracer, parent, id int) opResult {
	be, err := arch.ResolveBackend(o.backend)
	if err != nil {
		fmt.Printf("# FAIL %s: %v\n", o, err)
		return opResult{failed: true}
	}
	a, err := arch.ResolveApp(o.app)
	if err != nil {
		fmt.Printf("# FAIL %s: %v\n", o, err)
		return opResult{failed: true}
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	if col != nil {
		ctx = obs.NewContext(ctx, col)
	}
	opts := []arch.Option{arch.WithSize(o.size), arch.WithProcs(o.procs), arch.WithBackend(be)}

	// The run gets its own goroutine so that one that ignores its
	// cancelled context (a rank stuck in a socket write) is left behind
	// after a grace period instead of hanging the benchmark.
	type outcome struct {
		summary string
		rep     arch.Report
		rates   []float64
		err     error
	}
	done := make(chan outcome, 1)
	opSpan := tr.begin("op "+o.String(), parent, id, 0)
	runSpan := tr.begin("arch.RunApp", opSpan, id, 0)
	start := time.Now()
	go func() {
		var out outcome
		if a.KindName() == arch.KindStream {
			out.summary, out.rep, out.err = arch.RunAppStream(ctx, o.app, func(w arch.StreamWindow) {
				out.rates = append(out.rates, w.Rate)
			}, opts...)
		} else {
			out.summary, out.rep, out.err = arch.RunApp(ctx, o.app, opts...)
		}
		done <- out
	}()
	abandon := time.NewTimer(opDeadline + abandonGrace)
	defer abandon.Stop()
	var out outcome
	select {
	case out = <-done:
	case <-abandon.C:
		out.err = fmt.Errorf("run did not return %v after its deadline: %w", abandonGrace, context.DeadlineExceeded)
	}
	res := opResult{wall: time.Since(start).Seconds(), rep: out.rep, rates: out.rates}
	summary, err := out.summary, out.err
	tr.end(runSpan)

	checkSpan := tr.begin("reference-check", opSpan, id, 0)
	switch {
	case err != nil:
		res.failed = true
		res.timeout = errors.Is(err, context.DeadlineExceeded)
		fmt.Printf("# FAIL %s: %v\n", o, err)
	case summary != ref.summary || res.rep.Msgs != ref.msgs || res.rep.Bytes != ref.bytes:
		res.failed = true
		fmt.Printf("# FAIL %s: got %q %d msgs %d bytes, sim reference %q %d msgs %d bytes\n",
			o, summary, res.rep.Msgs, res.rep.Bytes, ref.summary, ref.msgs, ref.bytes)
	}
	tr.end(checkSpan)
	tr.end(opSpan)
	return res
}

// roundResult is one round: every op of the workload once, in seeded order.
type roundResult struct {
	wall   float64
	traced bool
	ops    map[op]opResult
}

func runRound(ops []op, refs map[op]reference, rng *rand.Rand, tr *tracer, parent, id int) roundResult {
	order := rng.Perm(len(ops))
	rr := roundResult{traced: tr != nil, ops: map[op]opResult{}}
	roundSpan := tr.begin("round", parent, id, 0)
	col := tr.newCollector()
	start := time.Now()
	for _, i := range order {
		rr.ops[ops[i]] = runOp(ops[i], refs[ops[i]], col, tr, roundSpan, id)
	}
	rr.wall = time.Since(start).Seconds()
	tr.end(roundSpan)
	return rr
}

// partSum is the summed wall time of one part's ops in a round.
func (rr roundResult) partSum(ops []op, part int) float64 {
	var t float64
	for _, o := range ops {
		if o.part == part {
			t += rr.ops[o].wall
		}
	}
	return t
}

// procSnapshot is the process-level state the proc.* metrics difference.
type procSnapshot struct {
	cpu float64 // user+system seconds, self + reaped children
	mem runtime.MemStats
}

func snapshotProc() procSnapshot {
	var s procSnapshot
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			s.cpu += tvSec(ru.Utime) + tvSec(ru.Stime)
		}
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func tvSec(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// emitProc reports CPU, memory and GC over the timed window.
func emitProc(res *results, before, after procSnapshot, wall float64, ops int) {
	cpu := after.cpu - before.cpu
	res.emit("proc.cpu_s", cpu, 1)
	res.emit("proc.cpu_util", cpu/(wall*P2), 1)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		res.emit("proc.peak_rss_mb", float64(ru.Maxrss)/1024, 1) // Linux reports KiB
	}
	n := float64(max(ops, 1))
	res.emit("proc.alloc_mb_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1e6/n, ops)
	res.emit("proc.allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/n, ops)
	res.emit("proc.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 1)
	res.emit("proc.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), 1)
}

// emitWindow reports what every workload's window has. An untraced run
// emits the gated metrics and the round's median and upper quartile; a
// traced pass mirrors the latter under pre ("e2e.") and adds the process
// and run-length metrics. partA and partB hold one value per untraced round.
func emitWindow(res *results, cfg config, pre string, setups, roundMs, partA, partB []float64, before, after procSnapshot, wall float64, rounds int) {
	n := len(roundMs)
	res.emit(pre+"round_ms_p50", median(roundMs), n)
	res.emit(pre+"round_ms_p75", percentile(roundMs, 0.75), n)
	if !cfg.traced {
		// Child start to first timed op: the one-off process start plus
		// the median of the repeated set-ups.
		res.emit("setup_s", cfg.startup+median(setups), len(setups))
		res.emit("round_ms_p10", percentile(roundMs, 0.10), n)
		res.emit("part_a_ms_p10", percentile(partA, 0.10), n)
		res.emit("part_b_ms_p10", percentile(partB, 0.10), n)
		res.emit("fail_ratio", float64(res.failed)/float64(res.attempted), res.attempted)
		return
	}
	emitProc(res, before, after, wall, res.attempted)
	res.emit("bench.samples", float64(rounds), rounds)
	res.emit("bench.wall_s", wall, 1)
	res.emit("bench.timeouts", float64(res.timeouts), res.attempted)
}

// metricPrefix is "" for an untraced run, whose workload-specific numbers
// go out under the names ISSUE 12 fixed, and "e2e." for a traced pass,
// which mirrors them into the per-layer record.
func metricPrefix(cfg config) string {
	if cfg.traced {
		return "e2e."
	}
	return ""
}

// runRounds runs a round-based workload (everything but serve-mixed).
func runRounds(cfg config, w workload) (*results, error) {
	res := newResults(w.name)
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up, repeated: references on sim, then one untimed warm-up round.
	var refs map[op]reference
	var setups []float64
	for rep := 0; rep < cfg.setupReps; rep++ {
		start := time.Now()
		var err error
		if refs, err = references(w.ops); err != nil {
			return nil, err
		}
		warm := runRound(w.ops, refs, rng, nil, -1, -1)
		for o, r := range warm.ops {
			if r.failed {
				return nil, fmt.Errorf("warm-up run of %s failed", o)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	workloadSpan := tr.begin("workload "+w.name, -1, 0, 0)

	// Timed window. A traced pass alternates traced and untraced rounds,
	// so the tracing overhead is a paired comparison inside one process.
	var rounds []roundResult
	before := snapshotProc()
	windowStart := time.Now()
	for r := 0; r < cfg.minRounds || time.Since(windowStart).Seconds() < cfg.seconds; r++ {
		var rr roundResult
		if r%2 == 0 {
			rr = runRound(w.ops, refs, rng, tr, workloadSpan, r)
		} else {
			s := tr.begin("untraced round", workloadSpan, r, 0)
			rr = runRound(w.ops, refs, rng, nil, -1, r)
			tr.end(s)
		}
		rounds = append(rounds, rr)
		for _, or := range rr.ops {
			res.attempted++
			if or.failed {
				res.failed++
			}
			if or.timeout {
				res.timeouts++
			}
		}
	}
	wall := time.Since(windowStart).Seconds()
	after := snapshotProc()

	// Timings come from untraced rounds only; a traced pass reads its
	// tracing cost from the traced ones.
	var plain, traced []roundResult
	for _, rr := range rounds {
		if rr.traced {
			traced = append(traced, rr)
		} else {
			plain = append(plain, rr)
		}
	}
	roundMs := roundWalls(plain)
	partA, partB, speedup := make([]float64, len(plain)), make([]float64, len(plain)), make([]float64, len(plain))
	for i, rr := range plain {
		partA[i], partB[i] = ms(rr.partSum(w.ops, 0)), ms(rr.partSum(w.ops, 1))
		speedup[i] = partA[i] / partB[i]
	}
	n := len(plain)

	pre := metricPrefix(cfg)
	emitWindow(res, cfg, pre, setups, roundMs, partA, partB, before, after, wall, len(rounds))
	switch w.name {
	case "batch-compute", "batch-comm":
		res.emit(pre+"speedup_p2", median(speedup), n)
	case "stream":
		res.emit(pre+"frames_per_s", float64(w.ops[0].size)/(median(partA)/1e3), n)
		res.emit(pre+"samples_per_s", float64(w.ops[1].size)/(median(partB)/1e3), n)
	}
	if !cfg.traced {
		return res, nil
	}

	// Traced pass: per-layer numbers.
	if w.name == "stream" {
		res.emit("stream.round_ms_p66", percentile(roundMs, 0.66), n)
	}
	emitOpLayers(res, w, refs, plain)
	emitObs(res, traced, median(roundMs))

	if err := runProbes(cfg, w, res, tr, workloadSpan, median(roundMs), plain); err != nil {
		return nil, err
	}
	tr.end(workloadSpan)
	tr.printSelfTimes(os.Stdout)
	if err := tr.writeChrome(tracePath(cfg, w.name)); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

func roundWalls(rounds []roundResult) []float64 {
	out := make([]float64, len(rounds))
	for i, rr := range rounds {
		out[i] = ms(rr.wall)
	}
	return out
}

// emitOpLayers reports what the ops themselves expose: per-op medians,
// message and byte counts, and the time RunApp spends outside the world.
func emitOpLayers(res *results, w workload, refs map[op]reference, rounds []roundResult) {
	outside := make([]float64, len(rounds))
	var msgs, bytes float64
	for i, rr := range rounds {
		msgs, bytes = 0, 0
		for _, or := range rr.ops {
			outside[i] += ms(or.wall - or.rep.Makespan)
			msgs += float64(or.rep.Msgs)
			bytes += float64(or.rep.Bytes)
		}
	}
	res.emit("arch.outside_world_ms", median(outside), len(rounds))
	res.emit("spmd.msgs_per_round", msgs, len(rounds))
	res.emit("spmd.bytes_per_round", bytes, len(rounds))

	for _, o := range w.ops {
		walls := make([]float64, len(rounds))
		for i, rr := range rounds {
			walls[i] = ms(rr.ops[o].wall)
		}
		res.emit(o.layer, median(walls), len(rounds))
	}

	switch w.name {
	case "batch-comm":
		// The P=1 op is the kernel alone: makespan / (iterations * n^2).
		o := w.ops[0]
		if m := jacobiIterations.FindStringSubmatch(refs[o].summary); m != nil {
			iters, _ := strconv.Atoi(m[1]) // the pattern admits digits only
			mk := make([]float64, len(rounds))
			for i, rr := range rounds {
				mk[i] = rr.ops[o].rep.Makespan
			}
			res.emit("poisson.ns_per_point", median(mk)*1e9/float64(iters*o.size*o.size), len(rounds))
		}
	case "stream":
		fftOp, histOp := w.ops[0], w.ops[1]
		mbs, mps, cvs := make([]float64, len(rounds)), make([]float64, len(rounds)), make([]float64, len(rounds))
		for i, rr := range rounds {
			f, h := rr.ops[fftOp], rr.ops[histOp]
			mbs[i] = float64(f.rep.Bytes) / 1e6 / f.wall
			mps[i] = float64(h.rep.Msgs) / h.wall
			cvs[i] = coefficientOfVariation(h.rates)
		}
		res.emit("stream.mb_per_s", median(mbs), len(rounds))
		res.emit("stream.msgs_per_s", median(mps), len(rounds))
		res.emit("stream.window_cv", median(cvs), len(rounds))
	}
}

var jacobiIterations = regexp.MustCompile(`(\d+) Jacobi iterations`)

func coefficientOfVariation(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := sum(xs) / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss/float64(len(xs))) / mean
}

// emitObs reads the flight recorder's summaries (Report.Obs) of the traced
// rounds: where the ranks' time went, and what tracing cost.
func emitObs(res *results, traced []roundResult, plainMedianMs float64) {
	res.emit("obs.overhead_pct", (median(roundWalls(traced))/plainMedianMs-1)*100, len(traced))
	var events, dropped []float64
	var blocked, comm, busy, rankSpan, critical, span float64
	for _, rr := range traced {
		var ev, dr float64
		for _, or := range rr.ops {
			s := or.rep.Obs
			if s == nil {
				continue
			}
			dr += float64(s.Dropped)
			for _, rk := range s.Ranks {
				ev += float64(rk.Events)
			}
			if s.Procs < 2 {
				continue
			}
			for _, rk := range s.Ranks {
				blocked += rk.BlockedSec
				comm += rk.CommSec
				busy += rk.BusySec
			}
			rankSpan += float64(s.Procs) * s.SpanSec
			critical += s.CriticalPathSec
			span += s.SpanSec
		}
		events = append(events, ev)
		dropped = append(dropped, dr)
	}
	res.emit("obs.events_per_round", median(events), len(traced))
	res.emit("obs.dropped", median(dropped), len(traced))
	if rankSpan > 0 {
		res.emit("backend.blocked_share", blocked/rankSpan, len(traced))
		res.emit("backend.comm_share", comm/rankSpan, len(traced))
		res.emit("backend.busy_share", busy/rankSpan, len(traced))
		res.emit("obs.critical_path_share", critical/span, len(traced))
	}
}
