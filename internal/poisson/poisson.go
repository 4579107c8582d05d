// Package poisson implements the Poisson-solver example of §3.6: a
// numerical solution of ∇²u = f on the unit square with Dirichlet
// boundary condition u = g, by discretization and Jacobi iteration.
//
// The computation is the paper's exactly: two copies of u (uk for the
// current iteration, ukp for the next), a grid f of right-hand-side
// values, a grid operation computing ukp from uk's neighbours (preceded
// by a boundary exchange), a max-reduction computing the global variable
// diffmax used for loop control (kept copy-consistent via the reduction's
// postcondition), and a copy of new values onto old (Figures 13 and 14).
// Every version makes that copy by swapping uk and ukp, which leaves uk
// with the same values; SolveSPMD still charges it as the paper's copy.
//
// Three versions are provided per the paper's method: SolveSeq (the
// original sequential program), SolveV1 (Figure 13 — the forall form),
// and SolveSPMD (Figure 14 — the message-passing form over a generic
// block distribution). All three produce bit-identical fields and
// iteration counts: all three call the one row kernel, jacobiRow, and the
// max-reduction is exact regardless of association order.
package poisson

import (
	"math"

	"repro/internal/array"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// Problem describes a Poisson instance on the unit square, discretized on
// an NX×NY grid (including boundary points).
type Problem struct {
	NX, NY int
	// F is the right-hand side f(x, y) of ∇²u = f.
	F func(x, y float64) float64
	// G is the Dirichlet boundary value g(x, y).
	G func(x, y float64) float64
	// Tolerance stops iteration when max |u_{k+1}-u_k| falls below it.
	Tolerance float64
	// MaxIter bounds the iteration count (0 means no bound).
	MaxIter int
}

// Hx and Hy return the grid spacings.
func (pr *Problem) Hx() float64 { return 1 / float64(pr.NX-1) }

// Hy returns the y spacing.
func (pr *Problem) Hy() float64 { return 1 / float64(pr.NY-1) }

// XY returns the coordinates of grid point (i, j).
func (pr *Problem) XY(i, j int) (float64, float64) {
	return float64(i) * pr.Hx(), float64(j) * pr.Hy()
}

// flopsPerPoint is the per-point cost of one Jacobi update (the 5-point
// stencil plus the h²f term).
const flopsPerPoint = 7

// jacobiRow is the arithmetic of every version: one row of the Jacobi
// step. With n = len(out), up, down and f hold the n points above, below
// and at the row, and mid the n+2 current values from one point left of the
// row to one point right of it, so out[j] updates mid[j+1]. It returns the
// row's max |new − old|.
//
// The max is folded over the bit patterns of |new − old| (the sign bit
// masked off) as integers and decoded once, at return. For non-negative
// floats integer order is float order, so the result is bit for bit the
// float maximum; a float max — builtin or math.Max — propagates NaN by a
// five-instruction loop-carried chain that costs more than the stencil,
// where this one is a compare and a select. The three edge cases: −0 is +0
// after the mask, as under math.Abs; +Inf is the largest non-NaN pattern;
// and every NaN pattern, whatever its payload, sorts above +Inf, so a NaN
// anywhere still wins the fold and a diverged solve ends with DiffMax = NaN
// rather than looking converged.
func jacobiRow(out, up, mid, down, f []float64, h2 float64) float64 {
	n := len(out)
	up, down, f = up[:n], down[:n], f[:n]
	left, centre, right := mid[:n], mid[1:n+1], mid[2:n+2]
	var d uint64
	for j := range out {
		v := (up[j] + down[j] + left[j] + right[j] - h2*f[j]) * 0.25
		out[j] = v
		d = max(d, math.Float64bits(v-centre[j])&^(1<<63))
	}
	return math.Float64frombits(d)
}

// Result reports a solve.
type Result struct {
	Iterations int
	DiffMax    float64
}

// SolveSeq runs the sequential Jacobi iteration, charging m, and returns
// the solution grid and convergence information — the "straightforward"
// sequential program of §3.6.1.
func SolveSeq(m core.Meter, pr *Problem) (*array.Dense2D[float64], Result) {
	h2 := pr.Hx() * pr.Hy()
	uk := array.New2D[float64](pr.NX, pr.NY)
	f := array.New2D[float64](pr.NX, pr.NY)
	initDense(pr, uk, f)
	ukp := uk.Clone()

	res := Result{DiffMax: math.Inf(1)}
	for res.DiffMax > pr.Tolerance && (pr.MaxIter == 0 || res.Iterations < pr.MaxIter) {
		diff := 0.0
		for i := 1; i < pr.NX-1; i++ {
			diff = max(diff, denseRow(ukp, uk, f, i, h2))
		}
		m.Flops(float64((pr.NX - 2) * (pr.NY - 2) * (flopsPerPoint + 2)))
		uk, ukp = ukp, uk
		res.DiffMax = diff
		res.Iterations++
	}
	return uk, res
}

// SolveV1 is the initial archetype-based version (Figure 13): the grid
// operation and the difference computation are forall loops over rows;
// the reduction is an ordinary max fold. mode selects sequential or
// concurrent execution with identical results.
func SolveV1(mode core.Mode, pr *Problem) (*array.Dense2D[float64], Result) {
	h2 := pr.Hx() * pr.Hy()
	uk := array.New2D[float64](pr.NX, pr.NY)
	f := array.New2D[float64](pr.NX, pr.NY)
	initDense(pr, uk, f)
	ukp := uk.Clone()
	rowDiff := make([]float64, pr.NX)

	res := Result{DiffMax: math.Inf(1)}
	for res.DiffMax > pr.Tolerance && (pr.MaxIter == 0 || res.Iterations < pr.MaxIter) {
		core.ParFor(mode, pr.NX-2, func(r int) {
			rowDiff[r+1] = denseRow(ukp, uk, f, r+1, h2)
		})
		diff := 0.0
		for i := 1; i < pr.NX-1; i++ {
			diff = max(diff, rowDiff[i])
		}
		uk, ukp = ukp, uk
		res.DiffMax = diff
		res.Iterations++
	}
	return uk, res
}

// SolveSPMD is the message-passing version (Figure 14) as process p's
// body, over the given block layout. Each iteration performs a boundary
// exchange, the grid operation on the intersection of the local section
// with the interior, a recursive-doubling max-reduction establishing the
// copy-consistent global diffmax, and the new-to-old copy. The grid
// operation sweeps one View per grid; the copy is a swap, charged as the
// copy (one word per owned point). It returns the distributed solution
// and convergence information (identical on every process).
func SolveSPMD(p spmd.Comm, pr *Problem, l meshspectral.Layout) (*meshspectral.Grid2D[float64], Result) {
	h2 := pr.Hx() * pr.Hy()
	uk := meshspectral.New2D[float64](p, pr.NX, pr.NY, l, 1)
	ukp := meshspectral.New2D[float64](p, pr.NX, pr.NY, l, 1)
	f := meshspectral.New2D[float64](p, pr.NX, pr.NY, l, 1)
	f.Fill(func(gi, gj int) float64 {
		x, y := pr.XY(gi, gj)
		return pr.F(x, y)
	})
	init := func(gi, gj int) float64 {
		if gi == 0 || gi == pr.NX-1 || gj == 0 || gj == pr.NY-1 {
			x, y := pr.XY(gi, gj)
			return pr.G(x, y)
		}
		return 0
	}
	uk.Fill(init)
	ukp.Fill(init)

	ix0, ix1 := uk.InteriorX()
	iy0, iy1 := uk.InteriorY()
	ox0, ox1 := uk.OwnedX()
	oy0, oy1 := uk.OwnedY()
	owned := float64((ox1 - ox0) * (oy1 - oy0)) // words to copy: a float64 is one
	diffmax := meshspectral.NewGlobal(p, math.Inf(1))

	res := Result{DiffMax: math.Inf(1)}
	for res.DiffMax > pr.Tolerance && (pr.MaxIter == 0 || res.Iterations < pr.MaxIter) {
		uk.ExchangeBoundary()
		// The |ukp−uk| scan is fused into the update row, where both values
		// are in registers; each row's max is merged into local once.
		local := 0.0
		if n := iy1 - iy0; ix1 > ix0 && n > 0 {
			cur, s, off := uk.View(ix0, ix1, iy0, iy1)
			next, _, _ := ukp.View(ix0, ix1, iy0, iy1)
			fv, _, _ := f.View(ix0, ix1, iy0, iy1)
			for r := off; r < off+(ix1-ix0)*s; r += s {
				local = max(local, jacobiRow(next[r:r+n], cur[r-s:], cur[r-1:], cur[r+s:], fv[r:], h2))
			}
			p.Flops(flopsPerPoint * float64((ix1-ix0)*n))
			p.Flops(float64(2 * (ix1 - ix0) * n))
		}
		res.DiffMax = diffmax.SetReduced(local, math.Max)
		uk, ukp = ukp, uk
		p.MemWords(owned)
		res.Iterations++
	}
	return uk, res
}

// denseRow applies jacobiRow to interior row i of the whole-grid arrays of
// the sequential versions.
func denseRow(ukp, uk, f *array.Dense2D[float64], i int, h2 float64) float64 {
	ny := uk.NY
	return jacobiRow(ukp.Row(i)[1:ny-1],
		uk.Row(i - 1)[1:ny-1], uk.Row(i), uk.Row(i + 1)[1:ny-1],
		f.Row(i)[1:ny-1], h2)
}

// initDense fills a dense u with boundary values of G (interior zero) and
// f with F values.
func initDense(pr *Problem, u, f *array.Dense2D[float64]) {
	u.Fill(func(i, j int) float64 {
		if i == 0 || i == pr.NX-1 || j == 0 || j == pr.NY-1 {
			x, y := pr.XY(i, j)
			return pr.G(x, y)
		}
		return 0
	})
	f.Fill(func(i, j int) float64 {
		x, y := pr.XY(i, j)
		return pr.F(x, y)
	})
}

// Manufactured returns a problem with the exact solution
// u*(x,y) = sin(πx)·sin(πy), i.e. f = -2π²·u* and g = 0, so the computed
// solution can be validated against the analytic one.
func Manufactured(nx, ny int, tol float64, maxIter int) *Problem {
	return &Problem{
		NX: nx, NY: ny,
		F: func(x, y float64) float64 {
			return -2 * math.Pi * math.Pi * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
		},
		G:         func(x, y float64) float64 { return 0 },
		Tolerance: tol,
		MaxIter:   maxIter,
	}
}

// Exact returns the manufactured problem's analytic solution at (x, y).
func Exact(x, y float64) float64 {
	return math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
}

// MaxError gathers the distributed solution at root and returns the
// maximum absolute error against the manufactured analytic solution
// (meaningful at root only; uses an all-reduce so every process gets it).
func MaxError(g *meshspectral.Grid2D[float64], pr *Problem) float64 {
	x0, x1 := g.OwnedX()
	y0, y1 := g.OwnedY()
	local := 0.0
	u, st, off := g.View(x0, x1, y0, y1)
	for gi, r := x0, off; gi < x1; gi, r = gi+1, r+st {
		for j, v := range u[r : r+y1-y0] {
			x, y := pr.XY(gi, y0+j)
			local = max(local, math.Abs(v-Exact(x, y)))
		}
	}
	return collective.AllReduce(g.Proc(), local, math.Max)
}
