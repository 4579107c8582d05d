package hostbench

// The elastic family measures what fault tolerance costs: the
// recovery-latency table behind EXPERIMENTS.md's "elastic" section. Each
// scenario runs the same deterministic one-deep mergesort world on the
// dist backend under the elastic registry entry's recovery budget, once
// uninterrupted and once per injected kill, and
// records wall-clock seconds plus the recovery activity — so the
// overhead column is re-execution + re-lease cost, isolated from the
// workload itself. Scenarios also re-assert the parity invariant
// (identical message/byte meters) so a regression in replay suppression
// fails the benchmark rather than skewing its numbers.

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/onedeep"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

// RecoveryResult is one elastic recovery-latency scenario's measurement.
type RecoveryResult struct {
	// Scenario names the run: "uninterrupted" or "kill-rank<R>@epoch<E>".
	Scenario string `json:"scenario"`
	// Procs is the world size.
	Procs int `json:"procs"`
	// Seconds is the run's wall-clock time (median of Rounds runs).
	Seconds float64 `json:"seconds"`
	// Restarts is the number of rank re-executions the run performed.
	Restarts int `json:"restarts"`
	// OverheadPct is the wall-clock overhead versus the uninterrupted
	// scenario, in percent (0 for the uninterrupted row itself).
	OverheadPct float64 `json:"overhead_pct"`
}

// elasticKill is one injected-kill scenario of the recovery table.
type elasticKill struct {
	rank, epoch int
}

// elasticRounds is how many times each scenario runs; the median lands
// in the report so one scheduler hiccup cannot skew the table.
const elasticRounds = 3

// CollectElastic measures the elastic policy's recovery latency: the
// committed BENCH_elastic.json baseline and the chaos CI job's artifact.
// Workers are in-process listeners (dist.Serve on loopback TCP), one per
// rank plus a spare for the replacement, so the kill cost measured is the
// substrate's (detection + replacement + replay), not process-spawn
// noise.
func CollectElastic(ctx context.Context, log io.Writer) (*Report, error) {
	if log == nil {
		log = io.Discard
	}
	rep := &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	const np = 4
	addrs := make([]string, np+1)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("hostbench: elastic worker listener: %w", err)
		}
		defer ln.Close()
		go dist.Serve(ln) //nolint:errcheck // ends when the listener closes
		addrs[i] = ln.Addr().String()
	}
	base, err := runElasticScenario(ctx, addrs, np, nil)
	if err != nil {
		return nil, fmt.Errorf("hostbench: elastic uninterrupted: %w", err)
	}
	base.Scenario = "uninterrupted"
	logRecovery(log, base)
	rep.Recovery = append(rep.Recovery, base)

	for _, k := range []elasticKill{{rank: 1, epoch: 0}, {rank: 0, epoch: 2}} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := runElasticScenario(ctx, addrs, np, &k)
		if err != nil {
			return nil, fmt.Errorf("hostbench: elastic kill rank %d epoch %d: %w", k.rank, k.epoch, err)
		}
		r.Scenario = fmt.Sprintf("kill-rank%d@epoch%d", k.rank, k.epoch)
		if base.Seconds > 0 {
			r.OverheadPct = (r.Seconds - base.Seconds) / base.Seconds * 100
		}
		logRecovery(log, r)
		rep.Recovery = append(rep.Recovery, r)
	}
	return rep, nil
}

func logRecovery(log io.Writer, r RecoveryResult) {
	fmt.Fprintf(log, "elastic %-22s P=%d %10.4fs %3d restarts %+7.1f%%\n",
		r.Scenario, r.Procs, r.Seconds, r.Restarts, r.OverheadPct)
}

// runElasticScenario runs the recovery workload elasticRounds times on a
// fresh world attached to the workers at addrs (with the given kill
// injected, or none) and reports the median wall-clock time. Every round
// re-checks the parity invariant: killed runs must move exactly as many
// messages and bytes as the uninterrupted ones.
func runElasticScenario(ctx context.Context, addrs []string, np int, kill *elasticKill) (RecoveryResult, error) {
	data := sortapp.RandomInts(1<<15, 7)
	spec := sortapp.OneDeepMergesort(onedeep.Centralized)
	blocks := sortapp.BlockDistribute(data, np)
	model := machine.IBMSP()

	var wantMsgs, wantBytes int64
	ref, err := core.Simulate(np, model, func(p *spmd.Proc) {
		onedeep.RunSPMD(p, spec, blocks[p.Rank()])
	})
	if err != nil {
		return RecoveryResult{}, err
	}
	wantMsgs, wantBytes = ref.Msgs, ref.Bytes

	secs := make([]float64, 0, elasticRounds)
	var restarts int
	for round := 0; round < elasticRounds; round++ {
		if err := ctx.Err(); err != nil {
			return RecoveryResult{}, err
		}
		var stats dist.Stats
		opts := []dist.Option{
			dist.WithWorkers(addrs...),
			dist.WithObserver(func(s dist.Stats) { stats = s }),
		}
		if kill != nil {
			opts = append(opts, dist.WithFaults(dist.Fault{Rank: kill.rank, Epoch: kill.epoch, Action: dist.Kill}))
		}
		start := time.Now()
		res, err := core.Run(ctx, dist.Elastic(opts...), np, model, func(p *spmd.Proc) {
			onedeep.RunSPMD(p, spec, blocks[p.Rank()])
		})
		if err != nil {
			return RecoveryResult{}, err
		}
		if res.Msgs != wantMsgs || res.Bytes != wantBytes {
			return RecoveryResult{}, fmt.Errorf("meter parity broken: %d msgs/%d bytes, want %d/%d",
				res.Msgs, res.Bytes, wantMsgs, wantBytes)
		}
		if kill != nil {
			if stats.Faults != 1 {
				return RecoveryResult{}, fmt.Errorf("kill fired %d times, want 1", stats.Faults)
			}
			if stats.Restarts < 1 {
				return RecoveryResult{}, fmt.Errorf("kill caused no restarts: %+v", stats)
			}
		}
		secs = append(secs, time.Since(start).Seconds())
		restarts += stats.Restarts
	}
	return RecoveryResult{Procs: np, Seconds: median(secs), Restarts: restarts / elasticRounds}, nil
}

// median of a small measurement set (insertion sort; len <= elasticRounds).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s[len(s)/2]
}
