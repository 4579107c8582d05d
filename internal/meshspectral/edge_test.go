package meshspectral

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/array"
	"repro/internal/spmd"
)

// Edge cases: grids smaller than the process count produce empty local
// sections on some processes; every operation must still work.

func TestEmptyLocalSections(t *testing.T) {
	const nx, ny = 2, 3 // 4 processes by rows: ranks 2,3 own nothing
	val := func(i, j int) float64 { return float64(i*10 + j) }
	run(t, 4, func(p *spmd.Proc) {
		g := New2D[float64](p, nx, ny, Rows(4), 1)
		g.Fill(val)
		x0, x1 := g.OwnedX()
		if x1-x0 > 1 {
			t.Errorf("rank %d owns %d rows of a 2-row grid over 4 procs", p.Rank(), x1-x0)
		}
		g.ExchangeBoundary() // must not deadlock or panic
		// On a rank that owns no row the view holds only the ring, and
		// the loop walks no row.
		y0, y1 := g.OwnedY()
		data, stride, off := g.View(x0, x1, y0, y1)
		for gi, r := x0, off; gi < x1; gi, r = gi+1, r+stride {
			row := data[r : r+y1-y0]
			for k := range row {
				row[k] = val(gi, y0+k) + 1
			}
		}
		full := GatherGrid(g, 0)
		if p.Rank() == 0 {
			for i := 0; i < nx; i++ {
				for j := 0; j < ny; j++ {
					if full.At(i, j) != val(i, j)+1 {
						t.Errorf("(%d,%d) = %g", i, j, full.At(i, j))
					}
				}
			}
		}
	})
}

func TestRedistributeWithEmptySections(t *testing.T) {
	// 3x8 grid: by rows over 6 procs half the procs are empty; by cols
	// everyone owns something. Round trip through both.
	const nx, ny = 3, 8
	val := func(i, j int) float64 { return float64(i*100 + j) }
	run(t, 6, func(p *spmd.Proc) {
		g := New2D[float64](p, nx, ny, Rows(6), 0)
		g.Fill(val)
		c := g.Redistribute(Cols(6))
		back := c.Redistribute(Rows(6))
		x0, x1 := back.OwnedX()
		for gi := x0; gi < x1; gi++ {
			for gj := 0; gj < ny; gj++ {
				if back.At(gi, gj) != val(gi, gj) {
					t.Errorf("roundtrip (%d,%d) = %g", gi, gj, back.At(gi, gj))
				}
			}
		}
	})
}

// TestRowOpOnEmptySection: a rank that owns no rows (no columns) still
// runs the row (column) operation once, on an empty block, and is charged
// what the per-row (per-column) forms charged it: nothing for the rows,
// a zero-word move for the columns.
func TestRowOpOnEmptySection(t *testing.T) {
	var empty atomic.Int32
	run(t, 4, func(p *spmd.Proc) {
		rows := New2D[float64](p, 2, 4, Rows(4), 0)
		cols := New2D[float64](p, 4, 2, Cols(4), 0)
		x0, x1 := rows.OwnedX()
		y0, y1 := cols.OwnedY()
		if (x1 == x0) != (y1 == y0) {
			t.Errorf("rank %d owns rows [%d,%d) but columns [%d,%d)", p.Rank(), x0, x1, y0, y1)
		}
		if x1 > x0 {
			return
		}
		empty.Add(1)
		tap := &chargeTap{Comm: p}
		rows, cols = New2D[float64](tap, 2, 4, Rows(4), 0), New2D[float64](tap, 4, 2, Cols(4), 0)
		var blocks []string
		f := func(b []float64, nx, ny int) { blocks = append(blocks, fmt.Sprintf("%d×%d len %d", nx, ny, len(b))) }
		rows.RowOp(f)
		cols.ColOp(f)
		if want := []string{"0×4 len 0", "4×0 len 0"}; !slices.Equal(blocks, want) {
			t.Errorf("rank %d: blocks %v, want %v", p.Rank(), blocks, want)
		}
		if want := []string{"MemWords(0)"}; !slices.Equal(tap.charges, want) {
			t.Errorf("rank %d: charges %v, want %v", p.Rank(), tap.charges, want)
		}
	})
	if empty.Load() != 2 {
		t.Errorf("%d of 4 ranks own no rows of 2, want 2", empty.Load())
	}
}

func TestOneByOneGrid(t *testing.T) {
	run(t, 1, func(p *spmd.Proc) {
		g := New2D[float64](p, 1, 1, Rows(1), 1)
		g.Set(0, 0, 42)
		g.ExchangeBoundary()
		if g.At(0, 0) != 42 {
			t.Error("1x1 grid lost its value")
		}
		full := GatherGrid(g, 0)
		if full.At(0, 0) != 42 {
			t.Error("1x1 gather wrong")
		}
	})
}

func TestScatterEmptySections(t *testing.T) {
	full := array.New2D[float64](2, 5)
	full.Fill(func(i, j int) float64 { return float64(i + j) })
	var back *array.Dense2D[float64]
	run(t, 4, func(p *spmd.Proc) {
		var src *array.Dense2D[float64]
		if p.Rank() == 0 {
			src = full
		}
		g := ScatterGrid(p, src, 0, Rows(4), 0)
		out := GatherGrid(g, 0)
		if p.Rank() == 0 {
			back = out
		}
	})
	for k := range full.Data {
		if back.Data[k] != full.Data[k] {
			t.Fatalf("scatter/gather with empty sections mismatch at %d", k)
		}
	}
}

func TestGrid3DEmptySlabs(t *testing.T) {
	const nx = 2
	run(t, 4, func(p *spmd.Proc) {
		g := New3D[float64](p, nx, 3, 3, 1)
		g.Fill(func(i, j, k int) float64 { return float64(i) })
		g.ExchangeBoundary()
		full := GatherGrid3(g, 0)
		if p.Rank() == 0 {
			if full.At(0, 0, 0) != 0 || full.At(1, 0, 0) != 1 {
				t.Error("3D gather with empty slabs wrong")
			}
		}
	})
}

// TestInteriorOnEmptySection: on a rank that owns no interior row the
// clipped interior is empty or inverted, and a view of it panics rather
// than hand out rows that are not there; a phase checks the range first,
// as the apps do.
func TestInteriorOnEmptySection(t *testing.T) {
	var inverted atomic.Int32
	run(t, 4, func(p *spmd.Proc) {
		g := New2D[float64](p, 2, 2, Rows(4), 1)
		lo, hi := g.InteriorX()
		if lo > hi {
			inverted.Add(1)
			msg := panicText(func() { g.View(lo, hi, 0, 2) })
			if want := fmt.Sprintf("view [%d,%d)x[0,2)", lo, hi); !strings.Contains(msg, want) {
				t.Errorf("rank %d: view of interior [%d,%d) panicked %q, want it to name %q", p.Rank(), lo, hi, msg, want)
			}
		}
	})
	if inverted.Load() == 0 {
		t.Error("no rank's interior is inverted")
	}
}
