package meshspectral

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/array"
	"repro/internal/machine"
	"repro/internal/spmd"
)

func run(t *testing.T, n int, body func(p *spmd.Proc)) *spmd.Result {
	t.Helper()
	res, err := spmd.MustWorld(n, machine.IBMSP()).Run(body)
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return res
}

func TestLayoutBasics(t *testing.T) {
	if Rows(4) != (Layout{4, 1}) || Cols(4) != (Layout{1, 4}) || Blocks(2, 3) != (Layout{2, 3}) {
		t.Error("layout constructors wrong")
	}
	if Rows(4).Validate(4) != nil || Blocks(2, 3).Validate(6) != nil {
		t.Error("valid layouts rejected")
	}
	if Blocks(2, 3).Validate(5) == nil || (Layout{0, 5}).Validate(5) == nil {
		t.Error("invalid layouts accepted")
	}
	l := Blocks(3, 4)
	for r := 0; r < 12; r++ {
		px, py := l.Coords(r)
		if l.Rank(px, py) != r {
			t.Fatalf("Coords/Rank roundtrip broken at %d", r)
		}
	}
	if l.String() != "3x4" {
		t.Errorf("String = %q", l.String())
	}
}

func TestNearSquare(t *testing.T) {
	cases := map[int]Layout{
		1:  {1, 1},
		4:  {2, 2},
		6:  {2, 3},
		12: {3, 4},
		16: {4, 4},
		7:  {1, 7}, // prime
		36: {6, 6},
	}
	for n, want := range cases {
		if got := NearSquare(n); got != want {
			t.Errorf("NearSquare(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestBlockRangeCoversAll(t *testing.T) {
	for _, n := range []int{1, 5, 7, 16, 100} {
		for _, parts := range []int{1, 2, 3, 7} {
			prev := 0
			for b := 0; b < parts; b++ {
				lo, hi := blockRange(n, parts, b)
				if lo != prev {
					t.Fatalf("gap at block %d of %d/%d", b, n, parts)
				}
				if hi < lo {
					t.Fatalf("negative block %d", b)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("blocks don't cover [0,%d)", n)
			}
		}
	}
}

// testLayouts enumerates layouts for a 6-process world.
func testLayouts6() []Layout {
	return []Layout{Rows(6), Cols(6), Blocks(2, 3), Blocks(3, 2)}
}

func TestFillGatherRoundtrip(t *testing.T) {
	const nx, ny = 13, 9
	want := array.New2D[float64](nx, ny)
	want.Fill(func(i, j int) float64 { return float64(i*100 + j) })
	for _, l := range testLayouts6() {
		var got *array.Dense2D[float64]
		run(t, 6, func(p *spmd.Proc) {
			g := New2D[float64](p, nx, ny, l, 1)
			g.Fill(func(gi, gj int) float64 { return float64(gi*100 + gj) })
			full := GatherGrid(g, 0)
			if p.Rank() == 0 {
				got = full
			} else if full != nil {
				t.Errorf("non-root got non-nil gather")
			}
		})
		for k := range want.Data {
			if got.Data[k] != want.Data[k] {
				t.Fatalf("layout %v: gathered grid wrong at %d", l, k)
			}
		}
	}
}

func TestExchangeBoundaryAllLayouts(t *testing.T) {
	const nx, ny = 12, 12
	val := func(i, j int) float64 { return float64(i*1000 + j) }
	for _, l := range testLayouts6() {
		for _, halo := range []int{1, 2} {
			run(t, 6, func(p *spmd.Proc) {
				g := New2D[float64](p, nx, ny, l, halo)
				g.Fill(val)
				g.ExchangeBoundary()
				// Every ghost cell whose global point exists must hold
				// the global value — including corners.
				x0, x1 := g.OwnedX()
				y0, y1 := g.OwnedY()
				for gi := x0 - halo; gi < x1+halo; gi++ {
					for gj := y0 - halo; gj < y1+halo; gj++ {
						if gi < 0 || gi >= nx || gj < 0 || gj >= ny {
							continue
						}
						if got := g.At(gi, gj); got != val(gi, gj) {
							t.Errorf("layout %v halo %d rank %d: ghost (%d,%d) = %g, want %g",
								l, halo, p.Rank(), gi, gj, got, val(gi, gj))
						}
					}
				}
			})
		}
	}
}

func TestExchangeBoundaryPeriodic(t *testing.T) {
	const nx, ny = 8, 8
	val := func(i, j int) float64 { return float64(i*1000 + j) }
	for _, l := range []Layout{Rows(4), Cols(4), Blocks(2, 2)} {
		run(t, 4, func(p *spmd.Proc) {
			g := New2D[float64](p, nx, ny, l, 1)
			g.SetPeriodic(true, true)
			g.Fill(val)
			g.ExchangeBoundary()
			x0, x1 := g.OwnedX()
			y0, y1 := g.OwnedY()
			for gi := x0 - 1; gi < x1+1; gi++ {
				for gj := y0 - 1; gj < y1+1; gj++ {
					want := val(wrap(gi, nx), wrap(gj, ny))
					if got := g.At(gi, gj); got != want {
						t.Errorf("layout %v rank %d: periodic ghost (%d,%d) = %g, want %g",
							l, p.Rank(), gi, gj, got, want)
					}
				}
			}
		})
	}
}

func TestExchangeBoundarySingleProcPeriodic(t *testing.T) {
	run(t, 1, func(p *spmd.Proc) {
		g := New2D[float64](p, 5, 5, Rows(1), 1)
		g.SetPeriodic(true, true)
		g.Fill(func(i, j int) float64 { return float64(i*10 + j) })
		g.ExchangeBoundary()
		if g.At(-1, 0) != 40 { // wraps to row 4
			t.Errorf("self-periodic top ghost = %g, want 40", g.At(-1, 0))
		}
		if g.At(5, 2) != 2 { // wraps to row 0
			t.Errorf("self-periodic bottom ghost = %g, want 2", g.At(5, 2))
		}
		if g.At(0, -1) != 4 {
			t.Errorf("self-periodic left ghost = %g, want 4", g.At(0, -1))
		}
	})
}

func TestRedistributeRoundtrip(t *testing.T) {
	const nx, ny = 10, 14
	val := func(i, j int) float64 { return float64(i)*3.5 + float64(j)*0.25 }
	run(t, 6, func(p *spmd.Proc) {
		g := New2D[float64](p, nx, ny, Rows(6), 1)
		g.Fill(val)
		chain := []Layout{Cols(6), Blocks(2, 3), Blocks(3, 2), Rows(6)}
		cur := g
		for _, l := range chain {
			cur = cur.Redistribute(l)
			x0, x1 := cur.OwnedX()
			y0, y1 := cur.OwnedY()
			for gi := x0; gi < x1; gi++ {
				for gj := y0; gj < y1; gj++ {
					if cur.At(gi, gj) != val(gi, gj) {
						t.Errorf("after redistribute to %v: (%d,%d) = %g, want %g",
							l, gi, gj, cur.At(gi, gj), val(gi, gj))
						return
					}
				}
			}
		}
	})
}

func TestRedistributeSameLayoutIsCopy(t *testing.T) {
	res := run(t, 4, func(p *spmd.Proc) {
		g := New2D[float64](p, 8, 8, Rows(4), 0)
		g.Fill(func(i, j int) float64 { return float64(i + j) })
		h := g.Redistribute(Rows(4))
		x0, x1 := h.OwnedX()
		for gi := x0; gi < x1; gi++ {
			for gj := 0; gj < 8; gj++ {
				if h.At(gi, gj) != g.At(gi, gj) {
					t.Error("same-layout redistribute lost data")
					return
				}
			}
		}
	})
	if res.Msgs != 0 {
		t.Errorf("same-layout redistribute sent %d messages, want 0", res.Msgs)
	}
}

// chargeTap records every Flops and MemWords charge, in order, on its way
// to the process.
type chargeTap struct {
	spmd.Comm
	charges []string
}

func (c *chargeTap) Flops(n float64) {
	c.charges = append(c.charges, fmt.Sprintf("Flops(%g)", n))
	c.Comm.Flops(n)
}

func (c *chargeTap) MemWords(n float64) {
	c.charges = append(c.charges, fmt.Sprintf("MemWords(%g)", n))
	c.Comm.MemWords(n)
}

// reverseLines reverses n lines of length elements of a row-major block in
// place, line l starting at l·step and its elements stride apart, charging
// Flops(length) per line as a per-line kernel would; lineCharges is what
// a chargeTap records for that.
func reverseLines(m spmd.Comm, a []float64, n, step, stride, length int) {
	for l := 0; l < n; l++ {
		for i, j := l*step, l*step+(length-1)*stride; i < j; i, j = i+stride, j-stride {
			a[i], a[j] = a[j], a[i]
		}
		m.Flops(float64(length))
	}
}

func lineCharges(n, length int) []string {
	out := make([]string, n)
	for l := range out {
		out[l] = fmt.Sprintf("Flops(%d)", length)
	}
	return out
}

// TestRowOpAndColOp: a row operation hands f the owned rows and a column
// operation the owned columns as one block, once, on every rank — a block
// of no rows or no columns included — and a kernel run over the blocks
// matches it run over the whole grid. The charges are those of the
// per-row / per-column callback forms the blocks replaced: the kernel's
// own, one per line in order, and after a column operation the movement
// of every owned column copied out and back.
func TestRowOpAndColOp(t *testing.T) {
	val := func(i, j int) float64 { return float64(i*100 + j) }
	for _, s := range [][2]int{{7, 5}, {5, 7}, {2, 3}, {3, 2}, {1, 1}} {
		nx, ny := s[0], s[1]
		// Every row reversed, then every column: point (i, j) ends up
		// holding (nx-1-i, ny-1-j).
		ref := array.New2D[float64](nx, ny)
		ref.Fill(func(i, j int) float64 { return val(nx-1-i, ny-1-j) })
		for _, n := range []int{1, 2, 3, 4} {
			var got *array.Dense2D[float64]
			run(t, n, func(p *spmd.Proc) {
				tap := &chargeTap{Comm: p}
				g := New2D[float64](tap, nx, ny, Rows(n), 0)
				g.Fill(val)
				x0, x1 := g.OwnedX()
				var blocks []string
				g.RowOp(func(b []float64, bx, by int) {
					blocks = append(blocks, fmt.Sprintf("%d×%d len %d", bx, by, len(b)))
					reverseLines(tap, b, bx, by, 1, by)
				})
				want := lineCharges(x1-x0, ny)
				wantBlock := fmt.Sprintf("%d×%d len %d", x1-x0, ny, (x1-x0)*ny)
				if !slices.Equal(blocks, []string{wantBlock}) || !slices.Equal(tap.charges, want) {
					t.Errorf("%d×%d over %d, rank %d: RowOp blocks %v charges %v, want [%s] %v",
						nx, ny, n, p.Rank(), blocks, tap.charges, wantBlock, want)
				}

				c := g.Redistribute(Cols(n))
				y0, y1 := c.OwnedY()
				tap.charges, blocks = nil, nil
				c.ColOp(func(b []float64, bx, by int) {
					blocks = append(blocks, fmt.Sprintf("%d×%d len %d", bx, by, len(b)))
					reverseLines(tap, b, by, 1, by, bx)
				})
				want = append(lineCharges(y1-y0, nx), fmt.Sprintf("MemWords(%d)", 2*nx*(y1-y0)))
				wantBlock = fmt.Sprintf("%d×%d len %d", nx, y1-y0, nx*(y1-y0))
				if !slices.Equal(blocks, []string{wantBlock}) || !slices.Equal(tap.charges, want) {
					t.Errorf("%d×%d over %d, rank %d: ColOp blocks %v charges %v, want [%s] %v",
						nx, ny, n, p.Rank(), blocks, tap.charges, wantBlock, want)
				}
				if full := GatherGrid(c, 0); p.Rank() == 0 {
					got = full
				}
			})
			if !slices.Equal(got.Data, ref.Data) {
				t.Errorf("%d×%d over %d: row then column op gave %v, want %v", nx, ny, n, got.Data, ref.Data)
			}
		}
	}
}

// TestRowOpRequiresRowDistribution: a block operation on a grid whose
// owned block is not what it hands over — the other distribution, a block
// layout, a ghost boundary — panics naming the layout and the halo, and
// never calls f.
func TestRowOpRequiresRowDistribution(t *testing.T) {
	for _, c := range []struct {
		op   string
		l    Layout
		halo int
		want string
	}{
		{"row", Cols(4), 0, "row operation requires a grid distributed by rows with halo 0, grid is 1x4 with halo 0"},
		{"row", Blocks(2, 2), 0, "row operation requires a grid distributed by rows with halo 0, grid is 2x2 with halo 0"},
		{"row", Rows(4), 1, "row operation requires a grid distributed by rows with halo 0, grid is 4x1 with halo 1"},
		{"column", Rows(4), 0, "column operation requires a grid distributed by columns with halo 0, grid is 4x1 with halo 0"},
		{"column", Blocks(2, 2), 0, "column operation requires a grid distributed by columns with halo 0, grid is 2x2 with halo 0"},
		{"column", Cols(4), 2, "column operation requires a grid distributed by columns with halo 0, grid is 1x4 with halo 2"},
	} {
		run(t, 4, func(p *spmd.Proc) {
			g := New2D[float64](p, 8, 8, c.l, c.halo)
			f := func([]float64, int, int) { t.Errorf("%s operation on %v halo %d called f", c.op, c.l, c.halo) }
			msg := panicText(func() {
				if c.op == "row" {
					g.RowOp(f)
				} else {
					g.ColOp(f)
				}
			})
			if msg != "meshspectral: "+c.want {
				t.Errorf("rank %d: %s operation on %v halo %d panicked %q, want %q", p.Rank(), c.op, c.l, c.halo, msg, "meshspectral: "+c.want)
			}
		})
	}
}

func TestAssignAndInterior(t *testing.T) {
	const nx, ny = 9, 7
	run(t, 3, func(p *spmd.Proc) {
		g := New2D[float64](p, nx, ny, Rows(3), 1)
		g.Fill(func(i, j int) float64 { return 1 })
		h := New2D[float64](p, nx, ny, Rows(3), 1)
		h.Fill(func(i, j int) float64 { return 0 })
		g.ExchangeBoundary()
		ix0, ix1 := h.InteriorX()
		iy0, iy1 := h.InteriorY()
		if n := iy1 - iy0; ix1 > ix0 && n > 0 {
			u, st, off := g.View(ix0, ix1, iy0, iy1)
			out, _, _ := h.View(ix0, ix1, iy0, iy1)
			for r := off; r < off+(ix1-ix0)*st; r += st {
				for k := range out[r : r+n] {
					out[r+k] = u[r+k-st] + u[r+k+st] + u[r+k-1] + u[r+k+1]
				}
			}
		}
		x0, x1 := h.OwnedX()
		y0, y1 := h.OwnedY()
		for gi := x0; gi < x1; gi++ {
			for gj := y0; gj < y1; gj++ {
				want := 4.0
				if gi == 0 || gi == nx-1 || gj == 0 || gj == ny-1 {
					want = 0 // boundary untouched
				}
				if h.At(gi, gj) != want {
					t.Errorf("rank %d: (%d,%d) = %g, want %g", p.Rank(), gi, gj, h.At(gi, gj), want)
				}
			}
		}
	})
}

func TestInteriorIntersection(t *testing.T) {
	// First and last processes clip at the global boundary.
	run(t, 4, func(p *spmd.Proc) {
		g := New2D[float64](p, 8, 8, Rows(4), 1)
		lo, hi := g.InteriorX()
		x0, x1 := g.OwnedX()
		wantLo, wantHi := x0, x1
		if p.Rank() == 0 {
			wantLo = 1
		}
		if p.Rank() == 3 {
			wantHi = 7
		}
		if lo != wantLo || hi != wantHi {
			t.Errorf("rank %d: InteriorX = [%d,%d), want [%d,%d)", p.Rank(), lo, hi, wantLo, wantHi)
		}
	})
}

func TestCopyFrom(t *testing.T) {
	run(t, 4, func(p *spmd.Proc) {
		a := New2D[float64](p, 8, 8, Blocks(2, 2), 1)
		a.Fill(func(i, j int) float64 { return float64(i * j) })
		b := New2D[float64](p, 8, 8, Blocks(2, 2), 1)
		b.copyFrom(a)
		x0, x1 := b.OwnedX()
		y0, y1 := b.OwnedY()
		for gi := x0; gi < x1; gi++ {
			for gj := y0; gj < y1; gj++ {
				if b.At(gi, gj) != a.At(gi, gj) {
					t.Errorf("copyFrom mismatch at (%d,%d)", gi, gj)
				}
			}
		}
	})
}

func TestOutOfRangeAccessPanics(t *testing.T) {
	_, err := spmd.MustWorld(2, machine.IBMSP()).Run(func(p *spmd.Proc) {
		g := New2D[float64](p, 8, 8, Rows(2), 1)
		g.At(7, 7) // rank 0 owns rows [0,4): row 7 is out of halo reach
	})
	if err == nil {
		t.Error("out-of-section access should panic")
	}
}

func TestGlobalVariable(t *testing.T) {
	run(t, 5, func(p *spmd.Proc) {
		dm := NewGlobal(p, 1.0)
		if dm.Get() != 1.0 {
			t.Error("initial value lost")
		}
		v := dm.SetReduced(float64(p.Rank()), func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
		if v != 4 || dm.Get() != 4 {
			t.Errorf("rank %d: reduced max = %g, want 4", p.Rank(), v)
		}
		v = dm.SetBcast(2, float64(p.Rank()*100))
		if v != 200 {
			t.Errorf("rank %d: broadcast = %g, want 200", p.Rank(), v)
		}
	})
}
