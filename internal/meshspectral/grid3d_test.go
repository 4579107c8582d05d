package meshspectral

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/spmd"
)

func TestGrid3DFillGather(t *testing.T) {
	const nx, ny, nz = 10, 4, 3
	val := func(i, j, k int) float64 { return float64(i*100 + j*10 + k) }
	run(t, 4, func(p *spmd.Proc) {
		g := New3D[float64](p, nx, ny, nz, 1)
		g.Fill(val)
		full := GatherGrid3(g, 0)
		if p.Rank() != 0 {
			if full != nil {
				t.Error("non-root got non-nil gather")
			}
			return
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					if full.At(i, j, k) != val(i, j, k) {
						t.Errorf("gathered (%d,%d,%d) = %g", i, j, k, full.At(i, j, k))
					}
				}
			}
		}
	})
}

func TestGrid3DExchange(t *testing.T) {
	const nx, ny, nz = 12, 3, 2
	val := func(i, j, k int) float64 { return float64(i*100 + j*10 + k) }
	for _, n := range []int{1, 2, 3, 4} {
		run(t, n, func(p *spmd.Proc) {
			g := New3D[float64](p, nx, ny, nz, 1)
			g.Fill(val)
			g.ExchangeBoundary()
			x0, x1 := g.OwnedX()
			for gi := x0 - 1; gi < x1+1; gi++ {
				if gi < 0 || gi >= nx {
					continue
				}
				for j := 0; j < ny; j++ {
					for k := 0; k < nz; k++ {
						if got := g.At(gi, j, k); got != val(gi, j, k) {
							t.Errorf("n=%d rank %d: ghost (%d,%d,%d) = %g, want %g",
								n, p.Rank(), gi, j, k, got, val(gi, j, k))
						}
					}
				}
			}
		})
	}
}

func TestGrid3DPeriodicExchange(t *testing.T) {
	const nx = 8
	val := func(i, j, k int) float64 { return float64(i) }
	run(t, 4, func(p *spmd.Proc) {
		g := New3D[float64](p, nx, 2, 2, 1)
		g.SetPeriodic(true)
		g.Fill(val)
		g.ExchangeBoundary()
		x0, x1 := g.OwnedX()
		lo := x0 - 1
		want := float64(((lo % nx) + nx) % nx)
		if g.At(lo, 0, 0) != want {
			t.Errorf("rank %d: periodic low ghost = %g, want %g", p.Rank(), g.At(lo, 0, 0), want)
		}
		hi := x1
		want = float64(hi % nx)
		if g.At(hi, 0, 0) != want {
			t.Errorf("rank %d: periodic high ghost = %g, want %g", p.Rank(), g.At(hi, 0, 0), want)
		}
	})
}

func TestGrid3DAssignStencil(t *testing.T) {
	const nx, ny, nz = 9, 5, 4
	run(t, 3, func(p *spmd.Proc) {
		u := New3D[float64](p, nx, ny, nz, 1)
		u.Fill(func(i, j, k int) float64 { return 1 })
		v := New3D[float64](p, nx, ny, nz, 1)
		u.ExchangeBoundary()
		x0, x1 := v.InteriorX()
		if x1 > x0 {
			in, plane, row, off := u.View(x0, x1)
			out, _, _, _ := v.View(x0, x1)
			for i := off; i < off+(x1-x0)*plane; i += plane {
				for r := i + row + 1; r < i+(ny-1)*row; r += row {
					for k := r; k < r+nz-2; k++ {
						out[k] = in[k-plane] + in[k+plane] + in[k-row] + in[k+row] + in[k-1] + in[k+1]
					}
				}
			}
		}
		gx0, gx1 := v.OwnedX()
		for gi := gx0; gi < gx1; gi++ {
			for j := 0; j < ny; j++ {
				for k := 0; k < nz; k++ {
					want := 6.0
					if gi == 0 || gi == nx-1 || j == 0 || j == ny-1 || k == 0 || k == nz-1 {
						want = 0
					}
					if v.At(gi, j, k) != want {
						t.Errorf("rank %d: (%d,%d,%d) = %g, want %g", p.Rank(), gi, j, k, v.At(gi, j, k), want)
					}
				}
			}
		}
	})
}

func TestGrid3DOutOfRangePanics(t *testing.T) {
	if _, err := run3err(2, func(p *spmd.Proc) {
		g := New3D[float64](p, 8, 2, 2, 1)
		g.At(0, 5, 0)
	}); err == nil {
		t.Error("out-of-range j should panic")
	}
}

func run3err(n int, body func(p *spmd.Proc)) (*spmd.Result, error) {
	return spmd.MustWorld(n, testModel3()).Run(body)
}

func testModel3() *machine.Model { return machine.IBMSP() }
