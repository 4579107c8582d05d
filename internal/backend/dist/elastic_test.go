package dist_test

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/obs"
	"repro/internal/onedeep"
	"repro/internal/poisson"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

func TestRegistered(t *testing.T) {
	r, ok := backend.ByName("elastic")
	if !ok {
		t.Fatal("elastic backend not registered")
	}
	if r.Name() != "elastic" || r.Virtual() {
		t.Errorf("elastic registered as name=%q virtual=%v, want non-virtual \"elastic\"", r.Name(), r.Virtual())
	}
	if n, d := dist.Budget(r); n != 3 || d != 2*time.Minute {
		t.Errorf("elastic budget = %d restarts, %v; want 3 restarts, 2m0s", n, d)
	}
}

// parityCase mirrors internal/backend's cross-backend parity programs:
// deterministic archetype apps whose results and meters must be
// bit-identical across backends.
type parityCase struct {
	name string
	prog func(np int) (core.Program, func() any)
}

func parityCases() []parityCase {
	return []parityCase{
		{
			name: "sorting/one-deep-mergesort",
			prog: func(np int) (core.Program, func() any) {
				data := sortapp.RandomInts(20000, 42)
				blocks := sortapp.BlockDistribute(data, np)
				spec := sortapp.OneDeepMergesort(onedeep.Centralized)
				outs := make([][]int32, np)
				return func(p *spmd.Proc) {
					outs[p.Rank()] = onedeep.RunSPMD(p, spec, blocks[p.Rank()])
				}, func() any { return outs }
			},
		},
		{
			name: "fft/2d-forward",
			prog: func(np int) (core.Program, func() any) {
				const n = 32
				var out []complex128
				return func(p *spmd.Proc) {
					g := meshspectral.New2D[complex128](p, n, n, meshspectral.Rows(p.N()), 0)
					g.Fill(func(i, j int) complex128 {
						return complex(math.Sin(float64(i)*0.11), math.Cos(float64(j)*0.23))
					})
					f := fft.TwoDSPMD(p, g, false)
					full := meshspectral.GatherGrid(f, 0)
					if p.Rank() == 0 {
						out = full.Data
					}
				}, func() any { return out }
			},
		},
		{
			name: "poisson/jacobi",
			prog: func(np int) (core.Program, func() any) {
				pr := poisson.Manufactured(25, 25, 1e-6, 2000)
				var grid []float64
				var iters int
				return func(p *spmd.Proc) {
						g, r := poisson.SolveSPMD(p, pr, meshspectral.NearSquare(p.N()))
						full := meshspectral.GatherGrid(g, 0)
						if p.Rank() == 0 {
							grid = full.Data
							iters = r.Iterations
						}
					}, func() any {
						return struct {
							Grid  []float64
							Iters int
						}{grid, iters}
					}
			},
		},
	}
}

// TestKillRecoveryParity is the acceptance contract of the elastic
// policy: a world that loses a worker mid-run — killed by a declared
// fault at a deterministic rank operation — completes with results and
// message/byte meters bit-identical to an uninterrupted run. Two distinct
// kill epochs per app, hitting different ranks, exercise recovery at
// different phases of each program; the sim backend supplies the
// uninterrupted reference, and one clean elastic run per app proves the
// substrate itself matches it before any faults are injected.
func TestKillRecoveryParity(t *testing.T) {
	const np = 4
	model := machine.IBMSP()
	kills := []struct {
		rank, epoch int
	}{
		{rank: 1, epoch: 0}, // a leaf rank's first completed operation
		{rank: 0, epoch: 2}, // the root rank, several operations in
	}
	for _, tc := range parityCases() {
		t.Run(tc.name, func(t *testing.T) {
			simProg, simSnap := tc.prog(np)
			simRes, err := core.Run(context.Background(), backend.Sim(), np, model, simProg)
			if err != nil {
				t.Fatalf("sim: %v", err)
			}
			want := simSnap()

			runOnce := func(faults ...dist.Fault) (any, *spmd.Result, dist.Stats) {
				t.Helper()
				var stats dist.Stats
				opts := []dist.Option{
					// Generous heartbeat: injected kills declare death
					// immediately, so detection latency is irrelevant here,
					// and a tight cadence could mis-declare a worker slow
					// under the race detector.
					dist.WithHeartbeat(200*time.Millisecond, 5),
					dist.WithObserver(func(s dist.Stats) { stats = s }),
					dist.WithFaults(faults...),
				}
				prog, snap := tc.prog(np)
				res, err := core.Run(context.Background(), dist.Elastic(opts...), np, model, prog)
				if err != nil {
					t.Fatalf("elastic: %v", err)
				}
				return snap(), res, stats
			}

			got, res, stats := runOnce()
			if !reflect.DeepEqual(want, got) {
				t.Fatal("uninterrupted elastic results differ from sim")
			}
			if res.Msgs != simRes.Msgs || res.Bytes != simRes.Bytes {
				t.Fatalf("uninterrupted elastic meters %d msgs/%d bytes, sim %d/%d",
					res.Msgs, res.Bytes, simRes.Msgs, simRes.Bytes)
			}
			if stats.Restarts != 0 || stats.DeclaredDead != 0 || stats.Faults != 0 {
				t.Fatalf("uninterrupted run reported recovery activity: %+v", stats)
			}

			for _, k := range kills {
				got, res, stats := runOnce(dist.Fault{Rank: k.rank, Epoch: k.epoch, Action: dist.Kill})
				if stats.Faults != 1 {
					t.Fatalf("kill rank=%d epoch=%d: fault fired %d times, want 1", k.rank, k.epoch, stats.Faults)
				}
				if stats.DeclaredDead < 1 || stats.Restarts < 1 {
					t.Fatalf("kill rank=%d epoch=%d: no recovery happened: %+v", k.rank, k.epoch, stats)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("kill rank=%d epoch=%d: recovered results differ from uninterrupted run", k.rank, k.epoch)
				}
				if res.Msgs != simRes.Msgs || res.Bytes != simRes.Bytes {
					t.Fatalf("kill rank=%d epoch=%d: meters %d msgs/%d bytes, want %d/%d (suppressed resends must not be re-metered)",
						k.rank, k.epoch, res.Msgs, res.Bytes, simRes.Msgs, simRes.Bytes)
				}
			}
		})
	}
}

// ringProg builds a deterministic two-round ring exchange: every rank has
// four operations, and the expected output is computable in closed form.
func ringProg(np int) (core.Program, func() []int) {
	outs := make([]int, np)
	return func(p *spmd.Proc) {
		r, n := p.Rank(), p.N()
		acc := r + 1
		for round := 0; round < 2; round++ {
			p.Send((r+1)%n, round, acc)
			acc += p.Recv((r+n-1)%n, round).(int)
		}
		outs[r] = acc
	}, func() []int { return outs }
}

func wantRing(np int) []int {
	want := make([]int, np)
	for r := 0; r < np; r++ {
		prev := (r + np - 1) % np
		prev2 := (r + np - 2) % np
		// round 1 adds prev's start; round 2 adds prev's round-1 sum.
		want[r] = (r + 1) + (prev + 1) + ((prev + 1) + (prev2 + 1))
	}
	return want
}

// TestRecoveryEveryCoordinate sweeps the faults that cost a worker over
// every coordinate a small program reaches: on a P=3 ring of two rounds,
// each rank's operations are a send and a receive per round, epochs 0 to
// 3, and a world that kills or drops at any one (rank, epoch) must end
// with the results and msg/byte meters of the uninterrupted run. A kill
// costs the rank one re-execution; a drop costs one only if the rank
// still needs its connection, which a late drop may not.
func TestRecoveryEveryCoordinate(t *testing.T) {
	const np, epochs = 3, 4
	want := wantRing(np)
	// No rank reaches epoch 4, so the sweep below covers every coordinate.
	var stats dist.Stats
	prog, _ := ringProg(np)
	if _, err := core.Run(context.Background(), dist.Elastic(
		dist.WithFaults(dist.Fault{Rank: dist.AnyRank, Epoch: epochs, Count: np, Action: dist.Delay}),
		dist.WithObserver(func(s dist.Stats) { stats = s }),
	), np, machine.IBMSP(), prog); err != nil || stats.Faults != 0 {
		t.Fatalf("probe past the last epoch: err %v, %d faults fired, want none", err, stats.Faults)
	}
	for _, act := range []dist.Action{dist.Kill, dist.Drop} {
		for rank := 0; rank < np; rank++ {
			for epoch := 0; epoch < epochs; epoch++ {
				var stats dist.Stats
				prog, snap := ringProg(np)
				res, err := core.Run(context.Background(), dist.Elastic(
					dist.WithFaults(dist.Fault{Rank: rank, Epoch: epoch, Action: act}),
					dist.WithObserver(func(s dist.Stats) { stats = s }),
				), np, machine.IBMSP(), prog)
				if err != nil {
					t.Fatalf("%v rank=%d epoch=%d: %v", act, rank, epoch, err)
				}
				if stats.Faults != 1 || stats.Restarts > 1 || (act == dist.Kill && stats.Restarts == 0) {
					t.Fatalf("%v rank=%d epoch=%d: %d faults fired, %d restarts", act, rank, epoch, stats.Faults, stats.Restarts)
				}
				if got := snap(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%v rank=%d epoch=%d: results %v, want %v", act, rank, epoch, got, want)
				}
				if res.Msgs != 2*np || res.Bytes != 2*np*8 {
					t.Fatalf("%v rank=%d epoch=%d: meters %d msgs/%d bytes, want %d/%d", act, rank, epoch, res.Msgs, res.Bytes, 2*np, 2*np*8)
				}
			}
		}
	}
}

// TestJoinMidRunPicksUpRescheduledRanks kills rank 0's worker mid-run;
// the spare listening worker past the world's first n addresses then
// joins mid-run as its replacement, and must pick up the re-executed rank
// so the world completes.
func TestJoinMidRunPicksUpRescheduledRanks(t *testing.T) {
	const np = 4
	var stats dist.Stats
	r := dist.Elastic(
		dist.WithWorkers(listenWorkers(t, np+1, nil)...),
		dist.WithHeartbeat(50*time.Millisecond, 3),
		dist.WithFaults(dist.Fault{Rank: 0, Epoch: 1, Action: dist.Kill}),
		dist.WithObserver(func(s dist.Stats) { stats = s }),
	)
	prog, snap := ringProg(np)
	res, err := core.Run(context.Background(), r, np, machine.IBMSP(), prog)
	if err != nil {
		t.Fatalf("elastic run with mid-run join: %v", err)
	}
	if got, want := snap(), wantRing(np); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring results = %v, want %v", got, want)
	}
	if res.Msgs != int64(2*np) {
		t.Errorf("meters = %d msgs, want %d (replayed sends must not re-meter)", res.Msgs, 2*np)
	}
	if stats.Faults != 1 {
		t.Fatalf("kill fired %d times, want 1", stats.Faults)
	}
	if stats.Restarts < 1 {
		t.Errorf("stats.Restarts = %d, want >= 1", stats.Restarts)
	}
	if stats.Workers < 2 {
		t.Errorf("stats.Workers = %d, want >= 2 (starting pool + mid-run joiner)", stats.Workers)
	}
}

// TestRestartBudgetExhausted points a fault at every operation of
// every rank: each attempt's worker dies at its first completed
// operation, so recovery can never converge. The per-rank restart budget
// must turn that livelock into a clean error. The listening worker is
// what keeps the kills coming — with no spare address, each lost rank
// redials it for a fresh worker to kill — so this test also proves
// redialing a listening worker works.
func TestRestartBudgetExhausted(t *testing.T) {
	addr := listenWorkers(t, 1, nil)[0]
	var stats dist.Stats
	r := dist.New(
		dist.WithWorkers(addr, addr),
		dist.WithHeartbeat(50*time.Millisecond, 3),
		dist.WithRecovery(2, 30*time.Second),
		dist.WithFaults(dist.Fault{Rank: dist.AnyRank, Epoch: dist.AnyEpoch, Count: 1000, Action: dist.Kill}),
		dist.WithObserver(func(s dist.Stats) { stats = s }),
	)
	prog, _ := ringProg(2)
	_, err := core.Run(context.Background(), r, 2, machine.IBMSP(), prog)
	if err == nil {
		t.Fatal("run with a kill-everything fault succeeded, want restart-budget error")
	}
	if !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("error = %v, want restart-budget exhaustion", err)
	}
	if stats.Faults < 3 {
		t.Errorf("fault fired %d times, want >= 3 (budget is 2 restarts)", stats.Faults)
	}
}

// TestCancellationMidRun cancels a world whose rank 0 is blocked in a
// receive that can never be satisfied: Run must return ctx.Err() promptly
// and tear the workers down (Run does not return until teardown
// completes).
func TestCancellationMidRun(t *testing.T) {
	r := dist.Elastic(dist.WithWorkers(listenWorkers(t, 2, nil)...))
	prog := func(p *spmd.Proc) {
		if p.Rank() == 0 {
			p.Recv(1, 1) // rank 1 never sends
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := core.Run(ctx, r, 2, machine.IBMSP(), prog)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}
}

// TestSpawnMode runs the registry's configuration: the coordinator
// re-executes this test binary as worker processes (TestMain calls
// dist.MaybeWorker), the same path archdemo and archbench users get.
func TestSpawnMode(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker processes")
	}
	const np = 2
	r, _ := backend.ByName("elastic")
	prog, snap := ringProg(np)
	res, err := core.Run(context.Background(), r, np, machine.IBMSP(), prog)
	if err != nil {
		t.Fatalf("spawn-mode elastic run: %v", err)
	}
	if got, want := snap(), wantRing(np); !reflect.DeepEqual(got, want) {
		t.Fatalf("ring results = %v, want %v", got, want)
	}
	if res.Msgs != int64(2*np) {
		t.Errorf("meters = %d msgs, want %d", res.Msgs, 2*np)
	}
}

// TestKillRecoveryTrace pins the flight recorder's view of a recovery:
// an injected kill must leave a causally ordered event chain — the fault
// fires, the rank's worker is declared dead, a replacement is leased to
// the rank, and the new attempt replays its logged receives — and the
// replayed attempt's re-executed sends must surface as resend-suppressed
// events (the wire-level proof that recovery does not re-meter).
func TestKillRecoveryTrace(t *testing.T) {
	const np = 4
	model := machine.IBMSP()
	// The poisson workload from the parity table: killing rank 0 a few
	// operations in guarantees its log holds both sends (suppressed on
	// replay) and receives (replayed from the log).
	tc := parityCases()[2]
	col := obs.NewCollector()
	// The recovery events fire within the first few operations; the
	// default drop-oldest ring would discard them under this workload's
	// tens of thousands of sends, so give the rings room for everything.
	col.RingSize = 1 << 18
	ctx := obs.NewContext(context.Background(), col)
	prog, _ := tc.prog(np)
	var stats dist.Stats
	_, err := core.Run(ctx, dist.Elastic(
		dist.WithHeartbeat(200*time.Millisecond, 5),
		dist.WithFaults(dist.Fault{Rank: 0, Epoch: 4, Action: dist.Kill}),
		dist.WithObserver(func(s dist.Stats) { stats = s }),
	), np, model, prog)
	if err != nil {
		t.Fatalf("elastic: %v", err)
	}
	if stats.Faults != 1 {
		t.Fatalf("fault fired %d times, want 1", stats.Faults)
	}

	rec := col.Last()
	if rec == nil {
		t.Fatal("no recorder registered: the collector context did not reach the transport")
	}
	if rec.Label() != "elastic" {
		t.Errorf("recorder label = %q, want the runner's name, \"elastic\"", rec.Label())
	}
	// AllEvents merges the rank rings and the system ring sorted by
	// timestamp, so first-occurrence scan order is causal order.
	var tFault, tDead, tRelease, tReplay int64 = -1, -1, -1, -1
	suppressed := 0
	for _, e := range rec.AllEvents() {
		switch e.Kind {
		case obs.KindFault:
			if tFault < 0 {
				tFault = e.T
			}
		case obs.KindDeclaredDead:
			if tDead < 0 {
				tDead = e.T
			}
		case obs.KindLease:
			if tDead >= 0 && tRelease < 0 {
				tRelease = e.T
			}
		case obs.KindReplay:
			if tReplay < 0 {
				tReplay = e.T
			}
		case obs.KindResendSuppressed:
			suppressed++
		}
	}
	switch {
	case tFault < 0:
		t.Fatal("no fault event: the injected kill was not recorded")
	case tDead < 0:
		t.Fatal("no declared-dead event")
	case tRelease < 0:
		t.Fatal("no re-lease after declared-dead")
	case tReplay < 0:
		t.Fatal("no replay event: the restarted attempt did not replay its log")
	case suppressed == 0:
		t.Fatal("no resend-suppressed events: replayed sends were not suppressed")
	}
	if !(tFault <= tDead && tDead <= tRelease && tRelease <= tReplay) {
		t.Fatalf("events out of causal order: fault=%d declared-dead=%d re-lease=%d replay=%d",
			tFault, tDead, tRelease, tReplay)
	}
}

// TestKillRecoveryBurst kills rank 1's worker at its first completed
// operation while every rank has three 1 MiB blocks in flight toward it
// (the burst row of the backend parity table): frames written down rank
// 1's connection that its worker never echoed back must reach the
// replacement, or rank 1 waits forever for them. Results and meters must
// equal sim's.
func TestKillRecoveryBurst(t *testing.T) {
	const np, blocks, words = 4, 3, 1 << 17
	prog := func() (core.Program, func() [][]float64) {
		got := make([][]float64, np)
		return func(p *spmd.Proc) {
			r, n := p.Rank(), p.N()
			for d := 1; d < n; d++ {
				for k := 0; k < blocks; k++ {
					b := make([]float64, words)
					for i := range b {
						b[i] = float64(r*1000+k) + float64(i)/words
					}
					spmd.SendT(p, (r+d)%n, 3, b)
				}
			}
			for d := 1; d < n; d++ {
				for k := 0; k < blocks; k++ {
					b := spmd.Recv[[]float64](p, (r+n-d)%n, 3)
					sum := 0.0
					for _, v := range b {
						sum += v
					}
					got[r] = append(got[r], b[0], b[len(b)-1], sum)
				}
			}
		}, func() [][]float64 { return got }
	}
	model := machine.IBMSP()
	simProg, simSnap := prog()
	simRes, err := core.Run(context.Background(), backend.Sim(), np, model, simProg)
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	var stats dist.Stats
	runProg, snap := prog()
	type outcome struct {
		res *spmd.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := core.Run(context.Background(), dist.Elastic(
			dist.WithFaults(dist.Fault{Rank: 1, Epoch: 0, Action: dist.Kill}),
			dist.WithObserver(func(s dist.Stats) { stats = s }),
		), np, model, runProg)
		done <- outcome{res, err}
	}()
	var res *spmd.Result
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatalf("elastic: %v", o.err)
		}
		res = o.res
	case <-time.After(60 * time.Second):
		t.Fatal("no result after 60s: the replacement never received the frames its predecessor had not echoed")
	}
	if stats.Faults != 1 || stats.Restarts != 1 {
		t.Fatalf("kill fired %d times with %d restarts, want 1 and 1", stats.Faults, stats.Restarts)
	}
	if !reflect.DeepEqual(simSnap(), snap()) {
		t.Fatal("recovered burst results differ from sim")
	}
	if res.Msgs != simRes.Msgs || res.Bytes != simRes.Bytes {
		t.Fatalf("meters %d msgs/%d bytes, sim %d/%d", res.Msgs, res.Bytes, simRes.Msgs, simRes.Bytes)
	}
}
