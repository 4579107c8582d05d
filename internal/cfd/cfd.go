// Package cfd implements the compressible-flow application of §3.7.1: a
// two-dimensional simulation of high-Mach-number flow on the 2D mesh
// archetype. The paper's two codes simulated shocks interacting with
// sinusoidal density interfaces (Figures 19 and 20 show density and
// vorticity images); this reproduction solves the same problem class —
// the 2D Euler equations with a planar shock driving into a sinusoidally
// perturbed density interface — with a Lax–Friedrichs finite-volume
// scheme (first-order, robust through shocks).
//
// The structure is pure mesh archetype: per step, one ghost-boundary
// exchange, a global max-reduction for the CFL time step (a
// copy-consistent global variable), and a grid operation computing the
// next state. The speedup experiment of Figure 16 runs this code.
package cfd

import (
	"math"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// Cell holds the conserved variables (ρ, ρu, ρv, E) at one grid point.
type Cell = [4]float64

// Params configures a shock–interface problem on the unit square,
// cell-centred on an NX×NY grid, x open (transmissive), y periodic.
type Params struct {
	NX, NY int
	// Gamma is the ratio of specific heats.
	Gamma float64
	// CFL is the time-step safety factor.
	CFL float64
	// Mach is the shock Mach number (shock travels in +x).
	Mach float64
	// ShockX is the initial shock position.
	ShockX float64
	// InterfaceX, InterfaceAmp, InterfaceK describe the sinusoidal
	// density interface x = InterfaceX + InterfaceAmp·sin(2π·K·y).
	InterfaceX   float64
	InterfaceAmp float64
	InterfaceK   int
	// RhoHeavy is the density of the gas right of the interface
	// (the pre-shock light gas has density 1, pressure 1).
	RhoHeavy float64
}

// DefaultParams returns the Figure 19/20-style configuration: a Mach 1.5
// shock driving into a sinusoidal interface with a 3× density jump.
func DefaultParams(nx, ny int) Params {
	return Params{
		NX: nx, NY: ny,
		Gamma: 1.4, CFL: 0.4,
		Mach:   1.5,
		ShockX: 0.15, InterfaceX: 0.4, InterfaceAmp: 0.05, InterfaceK: 2,
		RhoHeavy: 3,
	}
}

// flopsPerPoint is the approximate per-point cost of one Lax–Friedrichs
// update (four flux evaluations plus the combination, four components).
const flopsPerPoint = 90

// waveFlops is the per-point cost of the local wave-speed scan.
const waveFlops = 12

// postShock returns the post-shock (ρ, u, p) state behind a Mach-M shock
// moving into quiescent gas with ρ=1, p=1, via the Rankine–Hugoniot
// relations.
func postShock(gamma, mach float64) (rho, u, p float64) {
	m2 := mach * mach
	p = (2*gamma*m2 - (gamma - 1)) / (gamma + 1)
	rho = (gamma + 1) * m2 / ((gamma-1)*m2 + 2)
	c1 := math.Sqrt(gamma) // sqrt(γ·p1/ρ1) with p1 = ρ1 = 1
	us := mach * c1        // shock speed
	u = us * (1 - 1/rho)
	return rho, u, p
}

// InitCell returns the initial conserved state at position (x, y).
func (pm *Params) InitCell(x, y float64) Cell {
	rho, u, p := 1.0, 0.0, 1.0
	xi := pm.InterfaceX + pm.InterfaceAmp*math.Sin(2*math.Pi*float64(pm.InterfaceK)*y)
	switch {
	case x < pm.ShockX:
		rho, u, p = postShock(pm.Gamma, pm.Mach)
	case x > xi:
		rho = pm.RhoHeavy
	}
	return prim2cons(pm.Gamma, rho, u, 0, p)
}

func prim2cons(gamma, rho, u, v, p float64) Cell {
	return Cell{rho, rho * u, rho * v, p/(gamma-1) + 0.5*rho*(u*u+v*v)}
}

// Pressure returns the pressure of a conserved-variable cell.
func Pressure(gamma float64, c Cell) float64 {
	rho, mx, my, e := c[0], c[1], c[2], c[3]
	return (gamma - 1) * (e - 0.5*(mx*mx+my*my)/rho)
}

// fluxRow is the first half of both program versions' step: for each cell
// of row it stores the x-direction flux in fx and the y-direction flux in
// fy, and it returns the largest wave speed (|u|+c)/dx + (|v|+c)/dy among
// the cells, the CFL condition's. Each cell's velocities and pressure are
// computed once for all three. The builtin max propagates NaN as math.Max
// does, so a blown-up state still poisons dt instead of being skipped.
func fluxRow(fx, fy, row []Cell, gamma, dx, dy float64) float64 {
	fx, fy = fx[:len(row)], fy[:len(row)]
	m := 0.0
	for j, c := range row {
		rho, mx, my, e := c[0], c[1], c[2], c[3]
		u, v := mx/rho, my/rho
		p := Pressure(gamma, c)
		fx[j] = Cell{mx, mx*u + p, my * u, (e + p) * u}
		fy[j] = Cell{my, mx * v, my*v + p, (e + p) * v}
		if p < 1e-12 {
			p = 1e-12
		}
		snd := math.Sqrt(gamma * p / rho)
		m = max(m, (math.Abs(u)+snd)/dx+(math.Abs(v)+snd)/dy)
	}
	return m
}

// updateRow is the second half: the Lax–Friedrichs update of one row from
// the stored fluxes. With n = len(out), xm and xp hold the n cells of the
// rows before and after and fxm and fxp their x-fluxes, and mid the n+2
// cells of this row from one left of the span to one right of it and gmid
// their y-fluxes, so out[j] updates mid[j+1].
func updateRow(out, xm, mid, xp, fxm, gmid, fxp []Cell, dtdx, dtdy float64) {
	n := len(out)
	xm, xp, fxm, fxp = xm[:n], xp[:n], fxm[:n], fxp[:n]
	ym, yp, gym, gyp := mid[:n], mid[2:n+2], gmid[:n], gmid[2:n+2]
	for j := range out {
		var c Cell
		for k := 0; k < 4; k++ {
			c[k] = 0.25*(xm[j][k]+xp[j][k]+ym[j][k]+yp[j][k]) -
				0.5*dtdx*(fxp[j][k]-fxm[j][k]) -
				0.5*dtdy*(gyp[j][k]-gym[j][k])
		}
		out[j] = c
	}
}

// Sim is the distributed (SPMD) simulation state.
type Sim struct {
	Pm     Params
	U      *meshspectral.Grid2D[Cell]
	unew   *meshspectral.Grid2D[Cell]
	fx, fy []Cell // fluxes of U's owned block and ring, laid out as its View
	dtGlob *meshspectral.Global[float64]
	dx, dy float64
}

// NewSPMD builds the distributed simulation over layout l as process p's
// body.
func NewSPMD(p spmd.Comm, pm Params, l meshspectral.Layout) *Sim {
	s := &Sim{Pm: pm, dx: 1 / float64(pm.NX), dy: 1 / float64(pm.NY)}
	s.U = meshspectral.New2D[Cell](p, pm.NX, pm.NY, l, 1)
	s.U.SetPeriodic(false, true)
	s.unew = meshspectral.New2D[Cell](p, pm.NX, pm.NY, l, 1)
	s.unew.SetPeriodic(false, true)
	s.dtGlob = meshspectral.NewGlobal(p, 0.0)
	x0, x1 := s.U.OwnedX()
	y0, y1 := s.U.OwnedY()
	v, _, _ := s.U.View(x0, x1, y0, y1)
	s.fx, s.fy = make([]Cell, len(v)), make([]Cell, len(v))
	s.U.Fill(func(gi, gj int) Cell {
		return pm.InitCell((float64(gi)+0.5)*s.dx, (float64(gj)+0.5)*s.dy)
	})
	return s
}

// fillOpenX writes zero-gradient ghost cells at the global x boundaries
// (the y direction is periodic and handled by the exchange).
func (s *Sim) fillOpenX() {
	x0, x1 := s.U.OwnedX()
	y0, y1 := s.U.OwnedY()
	if x0 == 0 {
		for gj := y0; gj < y1; gj++ {
			s.U.Set(-1, gj, s.U.At(0, gj))
		}
	}
	if x1 == s.Pm.NX {
		for gj := y0; gj < y1; gj++ {
			s.U.Set(s.Pm.NX, gj, s.U.At(s.Pm.NX-1, gj))
		}
	}
}

// Step advances one time step and returns dt. The sequence is the mesh
// archetype's: boundary exchange, physical-boundary fill, one pass over the
// owned block and its ring storing every cell's fluxes and taking the
// owned cells' wave speeds, the wave-speed reduction (global variable), a
// grid operation reading the stored fluxes, swap. The ring's rows need
// only their x-fluxes and its columns only their y-fluxes; its corners are
// not read.
func (s *Sim) Step() float64 {
	p := s.U.Proc()
	s.U.ExchangeBoundary()
	s.fillOpenX()

	x0, x1 := s.U.OwnedX()
	y0, y1 := s.U.OwnedY()
	gamma, n := s.Pm.Gamma, y1-y0
	u, st, off := s.U.View(x0, x1, y0, y1)
	flux := func(r, k int) float64 {
		return fluxRow(s.fx[r:r+k], s.fy[r:r+k], u[r:r+k], gamma, s.dx, s.dy)
	}
	end := off + (x1-x0)*st
	flux(off-st, n) // the ring's rows
	flux(end, n)
	localMax := 0.0
	for r := off; r < end; r += st {
		flux(r-1, 1) // the ring's columns
		flux(r+n, 1)
		localMax = max(localMax, flux(r, n))
	}
	p.Flops(waveFlops * float64((x1-x0)*(y1-y0)))
	dt := s.Pm.CFL / s.dtGlob.SetReduced(localMax, math.Max)

	dtdx, dtdy := dt/s.dx, dt/s.dy
	if owned := (x1 - x0) * n; owned > 0 {
		out, _, _ := s.unew.View(x0, x1, y0, y1)
		for r := off; r < end; r += st {
			updateRow(out[r:r+n], u[r-st:], u[r-1:], u[r+st:], s.fx[r-st:], s.fy[r-1:], s.fx[r+st:], dtdx, dtdy)
		}
		p.Flops(flopsPerPoint * float64(owned))
	}
	s.U, s.unew = s.unew, s.U
	return dt
}

// Run advances n steps and returns the simulated physical time.
func (s *Sim) Run(n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += s.Step()
	}
	return t
}

// SeqSim is the sequential simulation, bit-identical to the SPMD version
// step for step (the max-reduction is exact and both call fluxRow and
// updateRow).
type SeqSim struct {
	Pm        Params
	U         *array.Dense2D[Cell]
	unew      *array.Dense2D[Cell]
	fx, fy    *array.Dense2D[Cell] // every cell's fluxes
	mid, gmid []Cell               // one row and its y-fluxes plus their two periodic ghosts
	dx, dy    float64
}

// NewSeq builds the sequential simulation.
func NewSeq(pm Params) *SeqSim {
	s := &SeqSim{Pm: pm, dx: 1 / float64(pm.NX), dy: 1 / float64(pm.NY)}
	s.U = array.New2D[Cell](pm.NX, pm.NY)
	s.unew = array.New2D[Cell](pm.NX, pm.NY)
	s.fx, s.fy = array.New2D[Cell](pm.NX, pm.NY), array.New2D[Cell](pm.NX, pm.NY)
	s.mid, s.gmid = make([]Cell, pm.NY+2), make([]Cell, pm.NY+2)
	s.U.Fill(func(i, j int) Cell {
		return pm.InitCell((float64(i)+0.5)*s.dx, (float64(j)+0.5)*s.dy)
	})
	return s
}

// wrap copies row into pad between its two periodic ghosts.
func wrap(pad, row []Cell) []Cell {
	n := len(row)
	pad[0], pad[n+1] = row[n-1], row[0]
	copy(pad[1:], row)
	return pad
}

// Step advances one time step sequentially, charging m, and returns dt.
// Neighbour rows are clamped in x (zero gradient) and the row itself is
// wrapped in y (periodic) — exactly the values the distributed ghosts
// hold.
func (s *SeqSim) Step(m core.Meter) float64 {
	nx, ny, gamma := s.Pm.NX, s.Pm.NY, s.Pm.Gamma
	localMax := 0.0
	for i := 0; i < nx; i++ {
		localMax = max(localMax, fluxRow(s.fx.Row(i), s.fy.Row(i), s.U.Row(i), gamma, s.dx, s.dy))
	}
	dt := s.Pm.CFL / localMax
	dtdx, dtdy := dt/s.dx, dt/s.dy
	for i := 0; i < nx; i++ {
		im, ip := max(i-1, 0), min(i+1, nx-1)
		updateRow(s.unew.Row(i), s.U.Row(im), wrap(s.mid, s.U.Row(i)), s.U.Row(ip),
			s.fx.Row(im), wrap(s.gmid, s.fy.Row(i)), s.fx.Row(ip), dtdx, dtdy)
	}
	m.Flops(float64(nx*ny) * (flopsPerPoint + waveFlops))
	s.U, s.unew = s.unew, s.U
	return dt
}

// Run advances n steps and returns the simulated physical time.
func (s *SeqSim) Run(m core.Meter, n int) float64 {
	t := 0.0
	for i := 0; i < n; i++ {
		t += s.Step(m)
	}
	return t
}

// Density extracts the density field from a gathered cell array.
func Density(u *array.Dense2D[Cell]) *array.Dense2D[float64] {
	out := array.New2D[float64](u.NX, u.NY)
	for k, c := range u.Data {
		out.Data[k] = c[0]
	}
	return out
}

// Vorticity computes ω = ∂v/∂x − ∂u/∂y by central differences on a
// gathered cell array (one-sided at the x edges, periodic in y).
func Vorticity(u *array.Dense2D[Cell]) *array.Dense2D[float64] {
	nx, ny := u.NX, u.NY
	dx, dy := 1/float64(nx), 1/float64(ny)
	vel := func(i, j int) (float64, float64) {
		c := u.At(i, j)
		return c[1] / c[0], c[2] / c[0]
	}
	out := array.New2D[float64](nx, ny)
	for i := 0; i < nx; i++ {
		im, ip := i-1, i+1
		sx := 2 * dx
		if im < 0 {
			im, sx = 0, dx
		}
		if ip >= nx {
			ip, sx = nx-1, dx
		}
		for j := 0; j < ny; j++ {
			jm := ((j-1)%ny + ny) % ny
			jp := (j + 1) % ny
			_, vxp := vel(ip, j)
			_, vxm := vel(im, j)
			uyp, _ := vel(i, jp)
			uym, _ := vel(i, jm)
			out.Set(i, j, (vxp-vxm)/sx-(uyp-uym)/(2*dy))
		}
	}
	return out
}

// TotalMass returns the integral of density over the domain (conserved by
// the scheme up to boundary flux; with closed x boundaries before the
// shock exits it is constant to rounding).
func TotalMass(u *array.Dense2D[Cell]) float64 {
	sum := 0.0
	for _, c := range u.Data {
		sum += c[0]
	}
	return sum / float64(u.NX*u.NY)
}
