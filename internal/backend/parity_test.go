package backend_test

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/onedeep"
	"repro/internal/poisson"
	"repro/internal/sortapp"
	"repro/internal/spmd"

	"repro/internal/fft"
)

// TestBackendParity is the reproduction's cross-backend contract: the
// same deterministic archetype program, run on the virtual-time
// simulator, on the real shared-memory backend, on the distributed
// backend (self-spawned localhost worker processes), and on its elastic
// policy (the same, keeping checkpoints to recover lost workers), must
// produce bit-identical computational results and identical
// message/byte counts at every process count. Only the meaning of time —
// and, for dist and elastic, the address space the messages cross —
// differs between backends.
func TestBackendParity(t *testing.T) {
	model := machine.IBMSP()
	// Each case returns a comparable snapshot of the computation's output;
	// the program must be deterministic (no RecvAny, no clock-dependent
	// control flow).
	cases := []struct {
		name string
		prog func(np int) (core.Program, func() any)
		// wantErr, when set, makes the row a failure-parity row: every
		// backend must fail the run, within a second, with an error that
		// contains it.
		wantErr string
	}{
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
		{
			// Send is buffered on every backend: a rank may put any number
			// of bytes in flight before its first receive. Every rank bursts
			// three 1 MiB blocks at every other rank (3 MiB per direction at
			// P=2, an all-to-all at P=4) and only then receives — far past
			// any socket buffer, which is what used to deadlock dist: its
			// worker stopped reading the down stream while its echo up was
			// blocked on a rank that was itself still writing.
			name: "burst/exchange-before-first-recv",
			prog: func(np int) (core.Program, func() any) {
				const blocks, words = 3, 1 << 17
				type digest struct {
					First, Last, Sum float64
				}
				got := make([][]digest, np)
				return func(p *spmd.Proc) {
					r, n := p.Rank(), p.N()
					p.MemWords(words) // the fill; keeps the P=1 makespan positive
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
							dg := digest{First: b[0], Last: b[len(b)-1]}
							for _, v := range b {
								dg.Sum += v
							}
							got[r] = append(got[r], dg)
						}
					}
				}, func() any { return got }
			},
		},
		{
			// A rank that panics while its peers are blocked on it fails
			// the run with its own panic on every backend: the peers are
			// unwound, not left waiting (they used to hang Run forever).
			name:    "panic/peers-blocked-on-the-dead-rank",
			wantErr: "spmd: process 0 panicked: boom",
			prog: func(np int) (core.Program, func() any) {
				return func(p *spmd.Proc) {
					if p.Rank() == 0 {
						panic("boom")
					}
					p.Recv(0, 1)
				}, func() any { return nil }
			},
		},
		{
			// Nothing is priced by default: a payload with no price fails
			// the run in Send, naming its type, before it reaches a
			// transport — the same diagnosis on every backend.
			name:    "unpriced/payload-with-no-price",
			wantErr: "payload type struct { X int } has no price",
			prog: func(np int) (core.Program, func() any) {
				return func(p *spmd.Proc) {
					if p.Rank() == 0 {
						p.Send(p.N()-1, 1, struct{ X int }{7})
					}
					if p.Rank() == p.N()-1 {
						p.Recv(0, 1)
					}
				}, func() any { return nil }
			},
		},
	}

	// run is core.Run under a watchdog: a backend that deadlocks fails its
	// row with every goroutine's stack instead of riding out the package
	// timeout.
	run := func(t *testing.T, b backend.Runner, np int, prog core.Program) (*spmd.Result, error) {
		type outcome struct {
			res *spmd.Result
			err error
		}
		done := make(chan outcome, 1)
		go func() {
			res, err := core.Run(context.Background(), b, np, model, prog)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-time.After(30 * time.Second):
			stacks := make([]byte, 1<<20)
			stacks = stacks[:runtime.Stack(stacks, true)]
			t.Fatalf("P=%d %s: no result after 30s — deadlock?\n%s", np, b.Name(), stacks)
			return nil, nil
		}
	}

	backends := allBackends()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, np := range []int{1, 2, 4} {
				if tc.wantErr != "" {
					for _, b := range backends {
						prog, _ := tc.prog(np)
						start := time.Now()
						_, err := run(t, b, np, prog)
						if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
							t.Errorf("P=%d %s: error %v, want one containing %q", np, b.Name(), err, tc.wantErr)
						}
						if took := time.Since(start); took > time.Second {
							t.Errorf("P=%d %s: failed after %v, want under a second", np, b.Name(), took)
						}
					}
					continue
				}
				simProg, simSnap := tc.prog(np)
				simRes, err := run(t, backends[0], np, simProg)
				if err != nil {
					t.Fatalf("P=%d sim: %v", np, err)
				}
				if simRes.Makespan <= 0 {
					t.Fatalf("P=%d: sim makespan %g, want positive virtual time", np, simRes.Makespan)
				}
				want := simSnap()
				for _, b := range backends[1:] {
					prog, snap := tc.prog(np)
					res, err := run(t, b, np, prog)
					if err != nil {
						t.Fatalf("P=%d %s: %v", np, b.Name(), err)
					}
					if !reflect.DeepEqual(want, snap()) {
						t.Fatalf("P=%d: %s results differ from sim", np, b.Name())
					}
					if simRes.Msgs != res.Msgs || simRes.Bytes != res.Bytes {
						t.Fatalf("P=%d: communication volume differs: sim %d msgs/%d bytes, %s %d msgs/%d bytes",
							np, simRes.Msgs, simRes.Bytes, b.Name(), res.Msgs, res.Bytes)
					}
				}
			}
		})
	}
}
