package meshspectral

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/spmd"
)

// flopsTap records every Flops charge on its way to the process.
type flopsTap struct {
	spmd.Comm
	charges []float64
}

func (c *flopsTap) Flops(n float64) {
	c.charges = append(c.charges, n)
	c.Comm.Flops(n)
}

// newValue is the grid operation both forms apply: it depends on the point
// and on the value already there, so a wrong index or a lost in-place read
// shows.
func newValue(old float64, gi, gj, gk int) float64 {
	return 2*old + float64(100*gi+10*gj+gk) + 0.5
}

// TestAssignRowFormMatchesPerPoint: the row-form grid operation equals a
// per-point reference written through Set — values, untouched ghosts and
// the Flops charge — over random shapes, layouts, halos and regions that
// clip, miss or straddle the owned block, sections that are empty
// included.
func TestAssignRowFormMatchesPerPoint(t *testing.T) {
	type tc struct {
		nx, ny, n      int
		l              Layout
		halo           int
		x0, x1, y0, y1 int
		whole          bool // Assign instead of AssignRegion
	}
	cases := []tc{
		{nx: 2, ny: 3, n: 4, l: Rows(4), halo: 1, whole: true},                // ranks 2,3 own nothing
		{nx: 3, ny: 2, n: 4, l: Cols(4), halo: 2, x0: 0, x1: 3, y0: 0, y1: 2}, // empty in y
		{nx: 5, ny: 5, n: 1, l: Rows(1), halo: 0, x0: 4, x1: 1, y0: 0, y1: 5}, // reversed: misses
	}
	rng := rand.New(rand.NewSource(16))
	for len(cases) < 300 {
		c := tc{nx: 1 + rng.Intn(9), ny: 1 + rng.Intn(9), n: []int{1, 2, 3, 4, 6}[rng.Intn(5)], halo: rng.Intn(3)}
		c.l = []Layout{Rows(c.n), Cols(c.n), NearSquare(c.n)}[rng.Intn(3)]
		c.x0, c.x1 = rng.Intn(c.nx+5)-2, rng.Intn(c.nx+5)-2
		c.y0, c.y1 = rng.Intn(c.ny+5)-2, rng.Intn(c.ny+5)-2
		c.whole = rng.Intn(5) == 0
		cases = append(cases, c)
	}
	const fpp = 3
	for _, c := range cases {
		name := fmt.Sprintf("%dx%d over %v halo %d region [%d,%d)x[%d,%d) whole=%v", c.nx, c.ny, c.l, c.halo, c.x0, c.x1, c.y0, c.y1, c.whole)
		run(t, c.n, func(p *spmd.Proc) {
			tap := &flopsTap{Comm: p}
			got := New2D[float64](tap, c.nx, c.ny, c.l, c.halo)
			want := New2D[float64](p, c.nx, c.ny, c.l, c.halo)
			init := func(gi, gj int) float64 { return float64(gi*c.ny + gj) }
			got.Fill(init)
			want.Fill(init)

			x0, x1, y0, y1 := c.x0, c.x1, c.y0, c.y1
			if c.whole {
				x0, x1, y0, y1 = 0, c.nx, 0, c.ny
			}
			ox0, ox1 := want.OwnedX()
			oy0, oy1 := want.OwnedY()
			cx0, cx1 := max(x0, ox0), min(x1, ox1)
			cy0, cy1 := max(y0, oy0), min(y1, oy1)
			points := 0
			for gi := cx0; gi < cx1; gi++ {
				for gj := cy0; gj < cy1; gj++ {
					want.Set(gi, gj, newValue(want.At(gi, gj), gi, gj, 0))
					points++
				}
			}

			nextRow := cx0
			f := func(gi, fy0, fy1 int, out []float64) {
				if gi != nextRow || fy0 != cy0 || fy1 != cy1 || len(out) != cy1-cy0 {
					t.Errorf("%s rank %d: callback (%d, %d, %d, len %d), want row %d cols [%d,%d)",
						name, p.Rank(), gi, fy0, fy1, len(out), nextRow, cy0, cy1)
				}
				nextRow++
				for k := range out {
					out[k] = newValue(out[k], gi, fy0+k, 0)
				}
			}
			if c.whole {
				got.Assign(fpp, f)
			} else {
				got.AssignRegion(x0, x1, y0, y1, fpp, f)
			}

			if !slices.Equal(got.loc.Data, want.loc.Data) {
				t.Errorf("%s rank %d: local sections differ\n got %v\nwant %v", name, p.Rank(), got.loc.Data, want.loc.Data)
			}
			var charge []float64
			if points > 0 {
				charge = []float64{fpp * float64(points)}
			}
			if !slices.Equal(tap.charges, charge) {
				t.Errorf("%s rank %d: Flops charges %v, want %v", name, p.Rank(), tap.charges, charge)
			}
		})
	}
}

// TestAssign3DPencilFormMatchesPerPoint is the 3D twin, slabs that own
// nothing included.
func TestAssign3DPencilFormMatchesPerPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const fpp = 5
	for trial := 0; trial < 150; trial++ {
		nx, ny, nz := 1+rng.Intn(6), 1+rng.Intn(4), 1+rng.Intn(5)
		n, halo := 1+rng.Intn(4), rng.Intn(3)
		whole := rng.Intn(5) == 0
		var r [6]int // x0, x1, y0, y1, z0, z1
		for d, ext := range []int{nx, nx, ny, ny, nz, nz} {
			r[d] = rng.Intn(ext+5) - 2
		}
		if whole {
			r = [6]int{0, nx, 0, ny, 0, nz}
		}
		name := fmt.Sprintf("%dx%dx%d over %d halo %d region %v whole=%v", nx, ny, nz, n, halo, r, whole)
		run(t, n, func(p *spmd.Proc) {
			tap := &flopsTap{Comm: p}
			got := New3D[float64](tap, nx, ny, nz, halo)
			want := New3D[float64](p, nx, ny, nz, halo)
			init := func(gi, gj, gk int) float64 { return float64((gi*ny+gj)*nz + gk) }
			got.Fill(init)
			want.Fill(init)

			ox0, ox1 := want.OwnedX()
			cx0, cx1 := max(r[0], ox0), min(r[1], ox1)
			cy0, cy1 := max(r[2], 0), min(r[3], ny)
			cz0, cz1 := max(r[4], 0), min(r[5], nz)
			points := 0
			for gi := cx0; gi < cx1; gi++ {
				for gj := cy0; gj < cy1; gj++ {
					for gk := cz0; gk < cz1; gk++ {
						want.Set(gi, gj, gk, newValue(want.At(gi, gj, gk), gi, gj, gk))
						points++
					}
				}
			}

			f := func(gi, gj, z0, z1 int, out []float64) {
				if z0 != cz0 || z1 != cz1 || len(out) != cz1-cz0 {
					t.Errorf("%s rank %d: callback k-range [%d,%d) len %d, want [%d,%d)", name, p.Rank(), z0, z1, len(out), cz0, cz1)
				}
				for k := range out {
					out[k] = newValue(out[k], gi, gj, z0+k)
				}
			}
			if whole {
				got.Assign(fpp, f)
			} else {
				got.AssignRegion(r[0], r[1], r[2], r[3], r[4], r[5], fpp, f)
			}

			if !slices.Equal(got.loc.Data, want.loc.Data) {
				t.Errorf("%s rank %d: local slabs differ", name, p.Rank())
			}
			var charge []float64
			if points > 0 {
				charge = []float64{fpp * float64(points)}
			}
			if !slices.Equal(tap.charges, charge) {
				t.Errorf("%s rank %d: Flops charges %v, want %v", name, p.Rank(), tap.charges, charge)
			}
		})
	}
}

// panicText runs f and returns what it panicked with ("" if it did not).
func panicText(f func()) (text string) {
	defer func() {
		if r := recover(); r != nil {
			text = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestRowSpanReachAliasAndPanics(t *testing.T) {
	run(t, 2, func(p *spmd.Proc) {
		// Rank r owns rows [4r, 4r+4) of all 6 columns; halo 1.
		g := New2D[float64](p, 8, 6, Rows(2), 1)
		x0, x1 := g.OwnedX()

		// The full reach: ghost rows and ghost columns included.
		for gi := x0 - 1; gi <= x1; gi++ {
			if s := g.RowSpan(gi, -1, 7); len(s) != 8 {
				t.Errorf("rank %d: row %d full span has length %d, want 8", p.Rank(), gi, len(s))
			}
		}
		if s := g.RowSpan(x0, 3, 3); len(s) != 0 {
			t.Errorf("empty span has length %d", len(s))
		}

		// Spans alias storage, ghosts too.
		s := g.RowSpan(x0, 2, 5)
		s[1] = 42
		if g.At(x0, 3) != 42 {
			t.Errorf("write through span not seen by At: %g", g.At(x0, 3))
		}
		g.Set(x1, -1, 7)
		if got := g.RowSpan(x1, -1, 0)[0]; got != 7 {
			t.Errorf("Set on a ghost not seen through span: %g", got)
		}
		// ...and cannot be re-sliced past their end.
		if cap(s) != len(s) {
			t.Errorf("span capacity %d exceeds its length %d", cap(s), len(s))
		}

		section := fmt.Sprintf("local section [%d,%d)x[0,6) with halo 1", x0, x1)
		for _, bad := range []struct {
			what       string
			gi, y0, y1 int
		}{
			{"one past the high ghost column", x0, 0, 8},
			{"one past the low ghost column", x0, -2, 3},
			{"reversed", x0, 4, 2},
			{"row past the ghost rows", x1 + 1, 0, 6},
			{"row before the ghost rows", x0 - 2, 0, 6},
		} {
			msg := panicText(func() { g.RowSpan(bad.gi, bad.y0, bad.y1) })
			span := fmt.Sprintf("row span (%d,[%d,%d))", bad.gi, bad.y0, bad.y1)
			if !strings.Contains(msg, span) || !strings.Contains(msg, section) {
				t.Errorf("rank %d, %s: panic %q, want it to name %q and %q", p.Rank(), bad.what, msg, span, section)
			}
		}
	})
}

func TestViewReachAliasAndPanics(t *testing.T) {
	run(t, 2, func(p *spmd.Proc) {
		// Rank r owns rows [4r, 4r+4) of all 6 columns; halo 1.
		g := New2D[float64](p, 8, 6, Rows(2), 1)
		x0, x1 := g.OwnedX()
		for gi := x0 - 1; gi <= x1; gi++ {
			for gj := -1; gj <= 6; gj++ {
				g.Set(gi, gj, float64(100*gi+gj))
			}
		}

		// Every point of a rectangle and its ring, ghosts included, is at
		// off + (gi-x0)*stride + (gj-y0); the view holds the ring's rows
		// from its first point to its last and no more.
		for _, r := range [][4]int{{x0, x1, 0, 6}, {x0 + 1, x0 + 3, 2, 4}, {x0, x0, 1, 3}} {
			data, stride, off := g.View(r[0], r[1], r[2], r[3])
			for gi := r[0] - 1; gi <= r[1]; gi++ {
				for gj := r[2] - 1; gj <= r[3]; gj++ {
					if got, want := data[off+(gi-r[0])*stride+(gj-r[2])], g.At(gi, gj); got != want {
						t.Errorf("rank %d, view %v: point (%d,%d) = %g, want %g", p.Rank(), r, gi, gj, got, want)
					}
				}
			}
			if first, last := off-stride-1, off+(r[1]-r[0])*stride+(r[3]-r[2]); first != 0 || last != len(data)-1 || cap(data) != len(data) {
				t.Errorf("rank %d, view %v: ring at [%d,%d] of len %d cap %d", p.Rank(), r, first, last, len(data), cap(data))
			}
		}
		data, stride, off := g.View(x0, x1, 0, 6)
		data[off+stride+2] = 42
		if g.At(x0+1, 2) != 42 {
			t.Errorf("write through view not seen by At: %g", g.At(x0+1, 2))
		}

		section := fmt.Sprintf("local section [%d,%d)x[0,6) with halo 1", x0, x1)
		for _, bad := range [][4]int{
			{x0 - 1, x1, 0, 6}, // ring row before the ghost rows
			{x0, x1 + 1, 0, 6}, // ring row past the ghost rows
			{x0, x1, -1, 6},    // ring column before the ghost columns
			{x0, x1, 0, 7},     // ring column past the ghost columns
			{x0 + 2, x0 + 1, 0, 6},
			{x0, x1, 4, 3},
		} {
			msg := panicText(func() { g.View(bad[0], bad[1], bad[2], bad[3]) })
			view := fmt.Sprintf("view [%d,%d)x[%d,%d)", bad[0], bad[1], bad[2], bad[3])
			if !strings.Contains(msg, view) || !strings.Contains(msg, section) {
				t.Errorf("rank %d: panic %q, want it to name %q and %q", p.Rank(), msg, view, section)
			}
		}
	})
}

func TestPencilReachAliasAndPanics(t *testing.T) {
	run(t, 2, func(p *spmd.Proc) {
		g := New3D[float64](p, 8, 3, 5, 1)
		x0, x1 := g.OwnedX()

		for gi := x0 - 1; gi <= x1; gi++ {
			if s := g.Pencil(gi, 2, 0, 5); len(s) != 5 {
				t.Errorf("rank %d: plane %d full pencil has length %d, want 5", p.Rank(), gi, len(s))
			}
		}
		s := g.Pencil(x0, 1, 1, 4)
		s[2] = 42
		if g.At(x0, 1, 3) != 42 {
			t.Errorf("write through pencil not seen by At: %g", g.At(x0, 1, 3))
		}
		if cap(s) != len(s) {
			t.Errorf("pencil capacity %d exceeds its length %d", cap(s), len(s))
		}

		slab := fmt.Sprintf("slab [%d,%d) (halo 1) of 8x3x5", x0, x1)
		for _, bad := range []struct {
			what           string
			gi, gj, z0, z1 int
		}{
			{"one past the end in k", x0, 0, 0, 6},
			{"before the start in k", x0, 0, -1, 3},
			{"reversed", x0, 0, 4, 2},
			{"j out of range", x0, 3, 0, 5},
			{"plane past the ghost planes", x1 + 1, 0, 0, 5},
		} {
			msg := panicText(func() { g.Pencil(bad.gi, bad.gj, bad.z0, bad.z1) })
			pencil := fmt.Sprintf("pencil (%d,%d,[%d,%d))", bad.gi, bad.gj, bad.z0, bad.z1)
			if !strings.Contains(msg, pencil) || !strings.Contains(msg, slab) {
				t.Errorf("rank %d, %s: panic %q, want it to name %q and %q", p.Rank(), bad.what, msg, pencil, slab)
			}
		}
	})
}
