package stream_test

import (
	"context"
	"reflect"
	"testing"

	"repro/arch"
	_ "repro/arch/apps"
	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/spmd"
	"repro/internal/stream"
)

// TestStreamParity extends the repository's cross-backend contract to
// the streaming archetype: the same pipeline, run on the virtual-time
// simulator, the shared-memory backend, the distributed backend and the
// elastic backend, must deliver the element-exact output stream with identical
// message/byte meters. The stream runtime uses only plain Recv (no
// RecvAny), so its protocol is deterministic by construction; this pins
// it.
func TestStreamParity(t *testing.T) {
	cases := []struct {
		name string
		pl   func() *stream.Pipeline[float64]
		cfg  stream.Config
	}{
		{
			name: "farm/doubling",
			pl:   func() *stream.Pipeline[float64] { return countingPipeline(3, nil) },
			cfg:  stream.Config{Elems: 300, Batch: 7, Credits: 2},
		},
		{
			name: "two-stage/uneven-farms",
			pl: func() *stream.Pipeline[float64] {
				return &stream.Pipeline[float64]{
					Name:  "two",
					Width: 1,
					Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
						return iota64(first, n, dst)
					},
					Stages: []stream.Stage[float64]{
						{Name: "inc", Workers: 3, Fn: func(c spmd.Comm, _ any, in []float64) []float64 {
							for k := range in {
								in[k]++
							}
							return in
						}},
						{Name: "neg", Workers: 2, Fn: func(c spmd.Comm, _ any, in []float64) []float64 {
							for k := range in {
								in[k] = -in[k]
							}
							return in
						}},
					},
				}
			},
			cfg: stream.Config{Elems: 257, Batch: 5, Credits: 3},
		},
		{
			// The sink keeps the very slices the last stage was handed.
			name: "forwarding-last-stage",
			pl: func() *stream.Pipeline[float64] {
				pl := countingPipeline(2, nil)
				pl.Stages = append(pl.Stages, stream.Stage[float64]{
					Name: "forward", Workers: 2,
					Fn: func(c spmd.Comm, _ any, in []float64) []float64 { return in },
				})
				return pl
			},
			cfg: stream.Config{Elems: 203, Batch: 6, Credits: 2},
		},
		{
			// The sink keeps a slice of the last stage's own state: Flush
			// hands over the running sums it accumulated in place (4 scalars,
			// so that one is packed, after 8-scalar batches forwarded as two
			// 4-wide elements each).
			name: "flush-returns-state",
			pl: func() *stream.Pipeline[float64] {
				pl := countingPipeline(3, nil)
				pl.Stages = append(pl.Stages, stream.Stage[float64]{
					Name:     "sums",
					OutWidth: 4,
					State:    func(c spmd.Comm) any { return new([4]float64) },
					Fn: func(c spmd.Comm, state any, in []float64) []float64 {
						sums := state.(*[4]float64)
						for k, v := range in {
							sums[k%4] += v
						}
						return in
					},
					Flush: func(c spmd.Comm, state any) []float64 { return state.(*[4]float64)[:] },
				})
				return pl
			},
			cfg: stream.Config{Elems: 120, Batch: 8, Credits: 2},
		},
	}

	elastic, ok := backend.ByName("elastic")
	if !ok {
		t.Fatal(`backend "elastic" not registered`)
	}
	backends := []backend.Runner{backend.Sim(), backend.Real(), dist.New(), elastic}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []float64
			var wantRes *spmd.Result
			for i, b := range backends {
				pl := tc.pl()
				var out []float64
				res, err := core.Run(context.Background(), b, pl.Procs(), model(), func(p *spmd.Proc) {
					if r := stream.Run(p, pl, tc.cfg); r != nil {
						out = flat(r)
					}
				})
				if err != nil {
					t.Fatalf("%s: %v", b.Name(), err)
				}
				if i == 0 {
					want, wantRes = out, res
					if int64(len(out)) < tc.cfg.Elems {
						t.Fatalf("sim produced %d scalars, want at least %d", len(out), tc.cfg.Elems)
					}
					continue
				}
				if !reflect.DeepEqual(want, out) {
					t.Fatalf("%s output differs from sim", b.Name())
				}
				if res.Msgs != wantRes.Msgs || res.Bytes != wantRes.Bytes {
					t.Fatalf("communication volume differs: sim %d msgs/%d bytes, %s %d msgs/%d bytes",
						wantRes.Msgs, wantRes.Bytes, b.Name(), res.Msgs, res.Bytes)
				}
			}
		})
	}
}

// TestStreamAppParity runs both registered streaming apps end to end on
// all three backends: each app verifies its own output bit-exact
// against the sequential oracle internally, and this test additionally
// requires the deterministic summary and the message/byte meters to
// agree across substrates.
func TestStreamAppParity(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns dist worker processes")
	}
	cases := []arch.Spec{
		{App: "streamfft", Size: 24, Procs: 6},
		{App: "streamhist", Size: 6000, Procs: 5},
	}
	for _, base := range cases {
		t.Run(base.App, func(t *testing.T) {
			var wantSum string
			var want arch.Report
			for i, b := range []string{"sim", "real", "dist"} {
				sp := base
				sp.Backend = b
				sum, rep, err := arch.RunSpec(context.Background(), sp)
				if err != nil {
					t.Fatalf("%s: %v", b, err)
				}
				if i == 0 {
					wantSum, want = sum, rep
					continue
				}
				if sum != wantSum {
					t.Errorf("%s summary %q differs from sim %q", b, sum, wantSum)
				}
				if rep.Msgs != want.Msgs || rep.Bytes != want.Bytes {
					t.Errorf("%s meters %d msgs/%d bytes differ from sim %d/%d",
						b, rep.Msgs, rep.Bytes, want.Msgs, want.Bytes)
				}
			}
		})
	}
}
