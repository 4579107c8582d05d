package meshspectral

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// onBackends runs body in an n-rank world on sim and on real: the two
// backends that hand a sent slice to its receiver, which is what halo
// buffer reuse relies on.
func onBackends(t *testing.T, n int, body func(p *spmd.Proc)) {
	t.Helper()
	for _, r := range []backend.Runner{backend.Sim(), backend.Real()} {
		if _, err := spmd.MustWorldOn(r, n, machine.IBMSP()).Run(body); err != nil {
			t.Fatalf("%s n=%d: %v", r.Name(), n, err)
		}
	}
}

func wrap(v, n int) int { return ((v % n) + n) % n }

// roundVal is a fill function that differs at every point and in every
// round, so a ghost cell left over from an earlier exchange is told apart.
func roundVal(round int) func(i, j int) float64 {
	return func(i, j int) float64 { return float64(round*1_000_000 + i*1000 + j) }
}

// checkGhosts2D verifies every cell of g's local section, ghosts and
// corners included, against val at the (wrapped, where periodic) global
// point; ghost cells beyond a non-periodic edge are skipped.
func checkGhosts2D(t *testing.T, what string, g *Grid2D[float64], val func(i, j int) float64) {
	t.Helper()
	x0, x1 := g.OwnedX()
	y0, y1 := g.OwnedY()
	for gi := x0 - g.H; gi < x1+g.H; gi++ {
		for gj := y0 - g.H; gj < y1+g.H; gj++ {
			wi, wj := gi, gj
			if g.perX {
				wi = wrap(gi, g.NX)
			}
			if g.perY {
				wj = wrap(gj, g.NY)
			}
			if wi < 0 || wi >= g.NX || wj < 0 || wj >= g.NY {
				continue
			}
			if got, want := g.At(gi, gj), val(wi, wj); got != want {
				t.Errorf("%s rank %d: cell (%d,%d) = %g, want %g", what, g.p.Rank(), gi, gj, got, want)
				return
			}
		}
	}
}

// TestExchangeReusesBuffersCorrectly exchanges several times in a row with
// different data each round, so a halo buffer that was reused while its
// last receiver still needed it, or unpacked from the wrong neighbour,
// shows as a stale ghost cell. The cases are the ones where neighbours
// coincide — a periodic self-neighbour (PX == 1), up == down (PX == 2,
// periodic) — plus the general layouts, for both halo widths.
func TestExchangeReusesBuffersCorrectly(t *testing.T) {
	const nx, ny, rounds = 12, 10, 4
	cases := []struct {
		n          int
		l          Layout
		perX, perY bool
	}{
		{1, Rows(1), true, true},      // every neighbour is the rank itself
		{2, Rows(2), true, false},     // up == down
		{2, Cols(2), true, true},      // left == right, self in x
		{2, Cols(2), false, false},    // one neighbour, a column
		{4, Blocks(2, 2), true, true}, // up == down and left == right
		{4, Blocks(2, 2), false, false},
		{6, Blocks(3, 2), false, true},
	}
	for _, c := range cases {
		for _, halo := range []int{1, 2} {
			what := fmt.Sprintf("layout %v periodic (%v,%v) halo %d", c.l, c.perX, c.perY, halo)
			onBackends(t, c.n, func(p *spmd.Proc) {
				g := New2D[float64](p, nx, ny, c.l, halo)
				g.SetPeriodic(c.perX, c.perY)
				for round := 0; round < rounds; round++ {
					g.Fill(roundVal(round))
					g.ExchangeBoundary()
					checkGhosts2D(t, fmt.Sprintf("%s round %d", what, round), g, roundVal(round))
				}
			})
		}
	}
}

// TestExchangeTwoGridsSwapped is cfd's pattern: two grids that trade
// places every step, so consecutive exchanges come from different grids,
// each with its own spare buffers.
func TestExchangeTwoGridsSwapped(t *testing.T) {
	const nx, ny, steps = 9, 8, 6
	for _, l := range []Layout{Rows(2), Cols(2)} {
		onBackends(t, 2, func(p *spmd.Proc) {
			u, unew := New2D[float64](p, nx, ny, l, 1), New2D[float64](p, nx, ny, l, 1)
			u.SetPeriodic(false, true)
			unew.SetPeriodic(false, true)
			for step := 0; step < steps; step++ {
				u.Fill(roundVal(step))
				u.ExchangeBoundary()
				checkGhosts2D(t, fmt.Sprintf("layout %v step %d", l, step), u, roundVal(step))
				u, unew = unew, u
			}
		})
	}
}

func TestGrid3DExchangeReusesBuffersCorrectly(t *testing.T) {
	const nx, ny, nz, rounds = 12, 3, 2, 4
	val := func(round, i, j, k int) float64 { return float64(round*100_000 + i*100 + j*10 + k) }
	for _, n := range []int{1, 2, 3} {
		for _, per := range []bool{false, true} {
			for _, halo := range []int{1, 2} {
				onBackends(t, n, func(p *spmd.Proc) {
					g := New3D[float64](p, nx, ny, nz, halo)
					g.SetPeriodic(per)
					x0, x1 := g.OwnedX()
					for round := 0; round < rounds; round++ {
						g.Fill(func(i, j, k int) float64 { return val(round, i, j, k) })
						g.ExchangeBoundary()
						for gi := x0 - halo; gi < x1+halo; gi++ {
							wi := gi
							if per {
								wi = wrap(gi, nx)
							}
							if wi < 0 || wi >= nx {
								continue
							}
							for j := 0; j < ny; j++ {
								for k := 0; k < nz; k++ {
									if got, want := g.At(gi, j, k), val(round, wi, j, k); got != want {
										t.Errorf("n=%d periodic %v halo %d round %d rank %d: cell (%d,%d,%d) = %g, want %g",
											n, per, halo, round, p.Rank(), gi, j, k, got, want)
										return
									}
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestMisshapenHaloIsDiagnosed: ranks that disagree about the grid's shape
// used to index past the short buffer, or silently take a prefix of the
// long one; now the receiver says what it got from whom.
func TestMisshapenHaloIsDiagnosed(t *testing.T) {
	cases := map[string]func(p *spmd.Proc){
		"rows": func(p *spmd.Proc) { New2D[float64](p, 8, 8-2*p.Rank(), Rows(2), 1).ExchangeBoundary() },
		"cols": func(p *spmd.Proc) { New2D[float64](p, 8-2*p.Rank(), 8, Cols(2), 1).ExchangeBoundary() },
		"3d":   func(p *spmd.Proc) { New3D[float64](p, 8, 3+p.Rank(), 2, 1).ExchangeBoundary() },
	}
	for name, body := range cases {
		_, err := spmd.MustWorld(2, machine.IBMSP()).Run(body)
		if err == nil {
			t.Errorf("%s: mismatched grids exchanged without complaint", name)
			continue
		}
		for _, part := range []string{"meshspectral: rank ", "received a halo of ", " elements from rank ", "(tag ", "), want "} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("%s: error %q does not name %q", name, err, part)
			}
		}
	}
}

// haloIteration is the communication of one mesh iteration (Figure 14):
// the boundary exchange and the max-reduction.
func haloIteration(g *Grid2D[float64], diff *Global[float64]) {
	g.ExchangeBoundary()
	diff.SetReduced(1, math.Max)
}

// TestHaloExchangeAllocations pins the steady-state cost of a mesh
// iteration's messages on real at one heap object each: the interface box
// of the payload (a slice header for a halo, the partial for a reduction
// step), which Comm.Send's `any` parameter makes unavoidable. The buffers
// themselves are reused. AllocsPerRun counts the whole process, so rank 0
// measures while the other ranks keep step.
func TestHaloExchangeAllocations(t *testing.T) {
	const runs = 50
	cases := []struct {
		l    Layout
		msgs int // per iteration, all ranks: halo sends plus reduction sends
	}{
		{Cols(2), 2 + 2},
		{Rows(2), 2 + 2},
		{Blocks(2, 2), 8 + 8},
	}
	for _, c := range cases {
		n := c.l.PX * c.l.PY
		var perRun float64
		_, err := spmd.MustWorldOn(backend.Real(), n, machine.IBMSP()).Run(func(p *spmd.Proc) {
			g := New2D[float64](p, 41, 41, c.l, 1)
			diff := NewGlobal(p, 0.0)
			if p.Rank() != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun warms up with one extra call
					haloIteration(g, diff)
				}
				return
			}
			perRun = testing.AllocsPerRun(runs, func() { haloIteration(g, diff) })
		})
		if err != nil {
			t.Fatal(err)
		}
		if perRun > float64(c.msgs) {
			t.Errorf("layout %v: %.1f heap objects per iteration for %d messages, want at most one each", c.l, perRun, c.msgs)
		}
	}
}

// BenchmarkHaloExchange is one boundary exchange of poisson@41's grid
// between two ranks on real: 1x2 sends a column (packed by stride), 2x1 a
// row. Steady state allocates the payload's interface box and nothing else.
func BenchmarkHaloExchange(b *testing.B) {
	for _, l := range []Layout{Cols(2), Rows(2)} {
		b.Run(l.String(), func(b *testing.B) {
			b.ReportAllocs()
			_, err := spmd.MustWorldOn(backend.Real(), 2, machine.IBMSP()).Run(func(p *spmd.Proc) {
				g := New2D[float64](p, 41, 41, l, 1)
				g.ExchangeBoundary()
				if p.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					g.ExchangeBoundary()
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
