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

// TestAssignRowFormMatchesPerPoint: a grid operation written as the apps
// write it — clip the region to the owned block, take one view, run a row
// kernel on every row by offset, charge once after the rows and nothing
// where the region clips to empty — equals a per-point reference written
// through Set: values, untouched ghosts and the Flops charge. Shapes,
// layouts, halos (0 included) and regions that clip, miss or straddle the
// owned block are random; sections that are empty are included.
func TestAssignRowFormMatchesPerPoint(t *testing.T) {
	type tc struct {
		nx, ny, n      int
		l              Layout
		halo           int
		x0, x1, y0, y1 int
		whole          bool // the whole grid instead of a region
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

			if n := cy1 - cy0; cx1 > cx0 && n > 0 {
				data, stride, off := got.View(cx0, cx1, cy0, cy1)
				for gi, r := cx0, off; gi < cx1; gi, r = gi+1, r+stride {
					row := data[r : r+n]
					for k := range row {
						row[k] = newValue(row[k], gi, cy0+k, 0)
					}
				}
				got.Proc().Flops(fpp * float64((cx1-cx0)*n))
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

// TestAssign3DPencilFormMatchesPerPoint is the 3D twin: one view of the
// clipped region's planes, a kernel on every k-pencil by offset, slabs
// that own nothing included.
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

			if cx1 > cx0 && cy1 > cy0 && cz1 > cz0 {
				data, plane, row, off := got.View(cx0, cx1)
				for gi, i := cx0, off; gi < cx1; gi, i = gi+1, i+plane {
					for gj := cy0; gj < cy1; gj++ {
						pencil := data[i+gj*row+cz0 : i+gj*row+cz1]
						for k := range pencil {
							pencil[k] = newValue(pencil[k], gi, gj, cz0+k)
						}
					}
				}
				got.Proc().Flops(fpp * float64((cx1-cx0)*(cy1-cy0)*(cz1-cz0)))
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

// TestViewReachAliasAndPanics: a view holds the rectangle's ring from its
// first point to its last and no more, aliases storage, and names the
// rectangle and the section when they do not fit. The ring is one point
// wide on a grid with a ghost boundary and empty on one without, where an
// empty rectangle's view holds no point.
func TestViewReachAliasAndPanics(t *testing.T) {
	for _, halo := range []int{1, 0} {
		run(t, 2, func(p *spmd.Proc) {
			// Rank r owns rows [4r, 4r+4) of all 6 columns.
			g := New2D[float64](p, 8, 6, Rows(2), halo)
			x0, x1 := g.OwnedX()
			w := min(halo, 1)
			for gi := x0 - w; gi < x1+w; gi++ {
				for gj := -w; gj < 6+w; gj++ {
					g.Set(gi, gj, float64(100*gi+gj))
				}
			}

			// Every point of a rectangle and its ring, ghosts included, is
			// at off + (gi-x0)*stride + (gj-y0).
			for _, r := range [][4]int{{x0, x1, 0, 6}, {x0 + 1, x0 + 3, 2, 4}, {x0, x0, 1, 3}, {x0 + 1, x0 + 2, 3, 3}, {x0, x1, 3, 3}} {
				data, stride, off := g.View(r[0], r[1], r[2], r[3])
				for gi := r[0] - w; gi < r[1]+w; gi++ {
					for gj := r[2] - w; gj < r[3]+w; gj++ {
						if got, want := data[off+(gi-r[0])*stride+(gj-r[2])], g.At(gi, gj); got != want {
							t.Errorf("rank %d halo %d, view %v: point (%d,%d) = %g, want %g", p.Rank(), halo, r, gi, gj, got, want)
						}
					}
				}
				first, last := off-w*stride-w, off+(r[1]-r[0]-1+w)*stride+(r[3]-r[2]-1+w)
				if w == 0 && (r[0] == r[1] || r[2] == r[3]) {
					first, last = 0, -1 // no ring, no point
				}
				if first != 0 || last != len(data)-1 || cap(data) != len(data) {
					t.Errorf("rank %d halo %d, view %v: ring at [%d,%d] of len %d cap %d", p.Rank(), halo, r, first, last, len(data), cap(data))
				}
			}
			data, stride, off := g.View(x0, x1, 0, 6)
			data[off+stride+2] = 42
			if g.At(x0+1, 2) != 42 {
				t.Errorf("rank %d halo %d: write through view not seen by At: %g", p.Rank(), halo, g.At(x0+1, 2))
			}

			section := fmt.Sprintf("local section [%d,%d)x[0,6) with halo %d", x0, x1, halo)
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
}

// TestView3DReachAliasAndPanics: a 3D view holds the planes and their
// ring and no more, aliases storage, and names the planes and the slab
// when they do not fit; on a grid without ghost planes the ring is empty.
func TestView3DReachAliasAndPanics(t *testing.T) {
	for _, halo := range []int{1, 0} {
		run(t, 2, func(p *spmd.Proc) {
			// Rank r owns planes [4r, 4r+4) of 3×5 points.
			g := New3D[float64](p, 8, 3, 5, halo)
			x0, x1 := g.OwnedX()
			w := min(halo, 1)
			for gi := x0 - w; gi < x1+w; gi++ {
				for gj := 0; gj < 3; gj++ {
					for gk := 0; gk < 5; gk++ {
						g.Set(gi, gj, gk, float64(100*gi+10*gj+gk))
					}
				}
			}

			for _, r := range [][2]int{{x0, x1}, {x0 + 1, x0 + 3}, {x0, x0}} {
				data, plane, row, off := g.View(r[0], r[1])
				for gi := r[0] - w; gi < r[1]+w; gi++ {
					for gj := 0; gj < 3; gj++ {
						for gk := 0; gk < 5; gk++ {
							if got, want := data[off+(gi-r[0])*plane+gj*row+gk], g.At(gi, gj, gk); got != want {
								t.Errorf("rank %d halo %d, view %v: point (%d,%d,%d) = %g, want %g", p.Rank(), halo, r, gi, gj, gk, got, want)
							}
						}
					}
				}
				if n := (r[1] - r[0] + 2*w) * plane; off != w*plane || len(data) != n || cap(data) != n {
					t.Errorf("rank %d halo %d, view %v: off %d len %d cap %d, want off %d and %d points", p.Rank(), halo, r, off, len(data), cap(data), w*plane, n)
				}
			}
			data, plane, row, off := g.View(x0, x1)
			data[off+plane+row+2] = 42
			if g.At(x0+1, 1, 2) != 42 {
				t.Errorf("rank %d halo %d: write through view not seen by At: %g", p.Rank(), halo, g.At(x0+1, 1, 2))
			}

			slab := fmt.Sprintf("slab [%d,%d) (halo %d) of 8x3x5", x0, x1, halo)
			for _, bad := range [][2]int{
				{x0 - 1, x1}, // ring plane before the ghost planes
				{x0, x1 + 1}, // ring plane past the ghost planes
				{x0 + 2, x0 + 1},
			} {
				msg := panicText(func() { g.View(bad[0], bad[1]) })
				view := fmt.Sprintf("view of planes [%d,%d)", bad[0], bad[1])
				if !strings.Contains(msg, view) || !strings.Contains(msg, slab) {
					t.Errorf("rank %d: panic %q, want it to name %q and %q", p.Rank(), msg, view, slab)
				}
			}
		})
	}
}
