// Package airshed implements the smog-model application of §3.7.4: the
// paper's CIT airshed code modelled photochemical smog in the Los Angeles
// basin on (conceptually) the mesh-spectral archetype. This reproduction
// is a multi-species photochemical transport model on a 2D grid with
// operator splitting — advection by a prescribed wind field (first-order
// upwind), turbulent diffusion (explicit), and a simplified NO/NO₂/O₃
// photochemical cycle with urban emissions:
//
//	NO₂ + hν → NO + O₃   (rate k1·[NO₂], daylight photolysis)
//	NO + O₃ → NO₂        (rate k2·[NO]·[O₃], titration)
//
// Each time step is mesh archetype throughout: one ghost exchange, then
// grid operations for the three split operators. Sequential and SPMD
// versions advance bit-identically: both call the same three row kernels.
package airshed

import (
	"math"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// Species indices in a concentration cell.
const (
	NO = iota
	NO2
	O3
	NumSpecies
)

// Conc holds the species concentrations at one grid cell.
type Conc = [3]float64

// Params configures an airshed episode on the unit-square basin,
// discretized NX×NY.
type Params struct {
	NX, NY int
	// Wind is the prescribed velocity field (sea breeze plus a basin
	// recirculation vortex).
	WindU, WindV float64 // base wind components
	Vortex       float64 // recirculation strength
	// K is the turbulent diffusivity.
	K float64
	// K1 is the NO₂ photolysis rate, K2 the titration rate.
	K1, K2 float64
	// EmitNO and EmitNO2 are urban emission rates; the city occupies a
	// Gaussian patch centred at (CityX, CityY) with radius CityR.
	EmitNO, EmitNO2     float64
	CityX, CityY, CityR float64
	// O3Background is the initial/boundary ozone concentration.
	O3Background float64
	// Dt is the time step; DefaultParams picks a stable one.
	Dt float64
}

// DefaultParams returns a stable smog-episode configuration.
func DefaultParams(nx, ny int) Params {
	h := 1 / float64(nx)
	pm := Params{
		NX: nx, NY: ny,
		WindU: 0.6, WindV: 0.15, Vortex: 0.4,
		K:  2e-3,
		K1: 0.8, K2: 4.0,
		EmitNO: 2.0, EmitNO2: 0.4,
		CityX: 0.3, CityY: 0.4, CityR: 0.12,
		O3Background: 0.4,
	}
	// CFL for advection (|u|max ~ 1.2) and diffusion.
	advDt := 0.4 * h / 1.2
	difDt := 0.2 * h * h / pm.K
	pm.Dt = math.Min(advDt, difDt)
	return pm
}

// Wind returns the wind vector at (x, y): the base flow plus a solid-body
// recirculation about the basin centre.
func (pm *Params) Wind(x, y float64) (float64, float64) {
	u := pm.WindU - pm.Vortex*(y-0.5)
	v := pm.WindV + pm.Vortex*(x-0.5)
	return u, v
}

// emission returns the per-species emission rate at (x, y).
func (pm *Params) emission(x, y float64) Conc {
	d2 := (x-pm.CityX)*(x-pm.CityX) + (y-pm.CityY)*(y-pm.CityY)
	w := math.Exp(-d2 / (pm.CityR * pm.CityR))
	return Conc{pm.EmitNO * w, pm.EmitNO2 * w, 0}
}

// initial returns the initial concentrations.
func (pm *Params) initial() Conc {
	return Conc{0, 0, pm.O3Background}
}

// advectFlops etc. are per-point cost estimates for the split operators.
const (
	advectFlops  = 30
	diffuseFlops = 24
	reactFlops   = 18
)

// upwind computes one first-order upwind advection step for every species
// at a point. cm/cp are the −/+ neighbours along each axis.
func upwind(c, xm, xp, ym, yp Conc, u, v, dtdx, dtdy float64) Conc {
	var out Conc
	for s := 0; s < NumSpecies; s++ {
		ddx := c[s] - xm[s]
		if u < 0 {
			ddx = xp[s] - c[s]
		}
		ddy := c[s] - ym[s]
		if v < 0 {
			ddy = yp[s] - c[s]
		}
		out[s] = c[s] - dtdx*u*ddx - dtdy*v*ddy
	}
	return out
}

// diffuse computes one explicit diffusion step at a point.
func diffuse(c, xm, xp, ym, yp Conc, kdtdx2, kdtdy2 float64) Conc {
	var out Conc
	for s := 0; s < NumSpecies; s++ {
		out[s] = c[s] + kdtdx2*(xm[s]-2*c[s]+xp[s]) + kdtdy2*(ym[s]-2*c[s]+yp[s])
	}
	return out
}

// react advances the photochemistry and emissions at a point, clamping
// concentrations at zero (explicit chemistry can overshoot at large k2).
func react(c, emit Conc, k1, k2, dt float64) Conc {
	photo := k1 * c[NO2] * dt
	titr := k2 * c[NO] * c[O3] * dt
	out := Conc{
		c[NO] + photo - titr + emit[NO]*dt,
		c[NO2] - photo + titr + emit[NO2]*dt,
		c[O3] + photo - titr + emit[O3]*dt,
	}
	for s := 0; s < NumSpecies; s++ {
		if out[s] < 0 {
			out[s] = 0
		}
	}
	return out
}

// coef holds the per-step constants both program versions derive from
// Params.
type coef struct {
	h, hy          float64 // cell sizes
	dtdx, dtdy     float64
	kdtdx2, kdtdy2 float64
}

func (pm *Params) coef() coef {
	h, hy := 1/float64(pm.NX), 1/float64(pm.NY)
	return coef{
		h: h, hy: hy,
		dtdx: pm.Dt / h, dtdy: pm.Dt / hy,
		kdtdx2: pm.K * pm.Dt / (h * h), kdtdy2: pm.K * pm.Dt / (hy * hy),
	}
}

// pos returns the centre of cell (i, j).
func (k coef) pos(i, j int) (float64, float64) {
	return (float64(i) + 0.5) * k.h, (float64(j) + 0.5) * k.hy
}

// The three row kernels below are the arithmetic of both program versions.
// out is row i from column y0 on, n = len(out) cells; xm and xp hold the n
// cells of rows i∓1 and mid the n+2 cells of row i from one left of the
// span to one right of it, so out[j] updates mid[j+1].

func (pm *Params) advectRow(k coef, out, xm, mid, xp []Conc, i, y0 int) {
	n := len(out)
	xm, xp = xm[:n], xp[:n]
	ym, c, yp := mid[:n], mid[1:n+1], mid[2:n+2]
	for j := range out {
		u, v := pm.Wind(k.pos(i, y0+j))
		out[j] = upwind(c[j], xm[j], xp[j], ym[j], yp[j], u, v, k.dtdx, k.dtdy)
	}
}

func diffuseRow(k coef, out, xm, mid, xp []Conc) {
	n := len(out)
	xm, xp = xm[:n], xp[:n]
	ym, c, yp := mid[:n], mid[1:n+1], mid[2:n+2]
	for j := range out {
		out[j] = diffuse(c[j], xm[j], xp[j], ym[j], yp[j], k.kdtdx2, k.kdtdy2)
	}
}

// reactRow is point-local: c holds the n cells under out.
func (pm *Params) reactRow(k coef, out, c []Conc, i, y0 int) {
	c = c[:len(out)]
	for j := range out {
		out[j] = react(c[j], pm.emission(k.pos(i, y0+j)), pm.K1, pm.K2, pm.Dt)
	}
}

// Sim is the distributed (SPMD) episode.
type Sim struct {
	Pm   Params
	C    *meshspectral.Grid2D[Conc]
	work *meshspectral.Grid2D[Conc]
}

// NewSPMD builds the distributed simulation over layout l as process p's
// body.
func NewSPMD(p spmd.Comm, pm Params, l meshspectral.Layout) *Sim {
	s := &Sim{Pm: pm}
	s.C = meshspectral.New2D[Conc](p, pm.NX, pm.NY, l, 1)
	s.work = meshspectral.New2D[Conc](p, pm.NX, pm.NY, l, 1)
	s.C.Fill(func(gi, gj int) Conc { return pm.initial() })
	return s
}

// fillOpen writes zero-gradient ghost cells at the global boundaries
// (pollutants advect out freely; backgrounds flow in).
func fillOpen(g *meshspectral.Grid2D[Conc], nx, ny int) {
	x0, x1 := g.OwnedX()
	y0, y1 := g.OwnedY()
	if x0 == 0 {
		for gj := y0; gj < y1; gj++ {
			g.Set(-1, gj, g.At(0, gj))
		}
	}
	if x1 == nx {
		for gj := y0; gj < y1; gj++ {
			g.Set(nx, gj, g.At(nx-1, gj))
		}
	}
	if y0 == 0 {
		for gi := x0 - 1; gi < x1+1; gi++ {
			if gi >= -1 && gi <= nx {
				g.Set(gi, -1, g.At(gi, 0))
			}
		}
	}
	if y1 == ny {
		for gi := x0 - 1; gi < x1+1; gi++ {
			if gi >= -1 && gi <= nx {
				g.Set(gi, ny, g.At(gi, ny-1))
			}
		}
	}
}

// Step advances one operator-split time step. Each operator is one grid
// operation: a view of the owned block and its ring in the current and the
// next concentration grid (they share layout and halo, so their strides
// and offsets agree), the operator's row kernel on every owned row, and
// its flops charged once, after the rows, on a rank that owns a point.
func (s *Sim) Step() {
	pm := s.Pm
	k := pm.coef()
	p := s.C.Proc()
	x0, x1 := s.C.OwnedX()
	y0, y1 := s.C.OwnedY()
	n, pts := y1-y0, float64((x1-x0)*(y1-y0))

	// Advection.
	s.C.ExchangeBoundary()
	fillOpen(s.C, pm.NX, pm.NY)
	if pts > 0 {
		c, st, off := s.C.View(x0, x1, y0, y1)
		out, _, _ := s.work.View(x0, x1, y0, y1)
		for gi, r := x0, off; gi < x1; gi, r = gi+1, r+st {
			pm.advectRow(k, out[r:r+n], c[r-st:], c[r-1:], c[r+st:], gi, y0)
		}
		p.Flops(advectFlops * pts)
	}
	s.C, s.work = s.work, s.C

	// Diffusion.
	s.C.ExchangeBoundary()
	fillOpen(s.C, pm.NX, pm.NY)
	if pts > 0 {
		c, st, off := s.C.View(x0, x1, y0, y1)
		out, _, _ := s.work.View(x0, x1, y0, y1)
		for r := off; r < off+(x1-x0)*st; r += st {
			diffuseRow(k, out[r:r+n], c[r-st:], c[r-1:], c[r+st:])
		}
		p.Flops(diffuseFlops * pts)
	}
	s.C, s.work = s.work, s.C

	// Chemistry and emissions (point-local; no exchange needed).
	if pts > 0 {
		c, st, off := s.C.View(x0, x1, y0, y1)
		out, _, _ := s.work.View(x0, x1, y0, y1)
		for gi, r := x0, off; gi < x1; gi, r = gi+1, r+st {
			pm.reactRow(k, out[r:r+n], c[r:], gi, y0)
		}
		p.Flops(reactFlops * pts)
	}
	s.C, s.work = s.work, s.C
}

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// SeqSim is the sequential episode, advancing bit-identically to the
// SPMD version.
type SeqSim struct {
	Pm   Params
	C    *array.Dense2D[Conc]
	work *array.Dense2D[Conc]
	mid  []Conc // one row plus its two zero-gradient ghosts
}

// NewSeq builds the sequential simulation.
func NewSeq(pm Params) *SeqSim {
	s := &SeqSim{Pm: pm}
	s.C = array.New2D[Conc](pm.NX, pm.NY)
	s.work = array.New2D[Conc](pm.NX, pm.NY)
	s.mid = make([]Conc, pm.NY+2)
	s.C.Fill(func(i, j int) Conc { return pm.initial() })
	return s
}

// stencilRows returns row i's neighbour rows and the row itself widened by
// one cell each side, all with clamped indices (zero-gradient boundaries),
// matching the distributed ghost contents exactly.
func (s *SeqSim) stencilRows(i int) (xm, mid, xp []Conc) {
	nx, ny := s.Pm.NX, s.Pm.NY
	row := s.C.Row(i)
	s.mid[0], s.mid[ny+1] = row[0], row[ny-1]
	copy(s.mid[1:], row)
	return s.C.Row(max(i-1, 0)), s.mid, s.C.Row(min(i+1, nx-1))
}

// Step advances one time step sequentially, charging m.
func (s *SeqSim) Step(m core.Meter) {
	pm := s.Pm
	k := pm.coef()
	for i := 0; i < pm.NX; i++ {
		xm, mid, xp := s.stencilRows(i)
		pm.advectRow(k, s.work.Row(i), xm, mid, xp, i, 0)
	}
	s.C, s.work = s.work, s.C
	for i := 0; i < pm.NX; i++ {
		xm, mid, xp := s.stencilRows(i)
		diffuseRow(k, s.work.Row(i), xm, mid, xp)
	}
	s.C, s.work = s.work, s.C
	for i := 0; i < pm.NX; i++ {
		pm.reactRow(k, s.work.Row(i), s.C.Row(i), i, 0)
	}
	s.C, s.work = s.work, s.C
	m.Flops(float64((advectFlops + diffuseFlops + reactFlops) * pm.NX * pm.NY))
}

// Run advances n steps.
func (s *SeqSim) Run(m core.Meter, n int) {
	for i := 0; i < n; i++ {
		s.Step(m)
	}
}

// Field extracts one species' concentration field from a gathered array.
func Field(c *array.Dense2D[Conc], species int) *array.Dense2D[float64] {
	out := array.New2D[float64](c.NX, c.NY)
	for k, v := range c.Data {
		out.Data[k] = v[species]
	}
	return out
}

// TotalNOx returns the domain total of NO+NO₂ (conserved by the
// chemistry; changed only by emissions and boundary outflow).
func TotalNOx(c *array.Dense2D[Conc]) float64 {
	sum := 0.0
	for _, v := range c.Data {
		sum += v[NO] + v[NO2]
	}
	return sum / float64(c.NX*c.NY)
}
