// Package fdtd implements the electromagnetic-scattering application of
// §3.7.2: numerical simulation of electromagnetic fields with a
// finite-difference time-domain (Yee) technique on the three-dimensional
// mesh archetype.
//
// The solver advances Maxwell's curl equations in a vacuum cavity with
// perfectly conducting walls (tangential E pinned to zero) in normalized
// units (c = ε₀ = μ₀ = 1) on a uniform N³ grid, excited by an initial
// Gaussian pulse. Each time step is two mesh-archetype phases: exchange E
// ghosts → update H from curl E; exchange H ghosts → update E from curl
// H. The grid is slab-decomposed along x as in the paper's 3D mesh
// archetype. Figure 17's speedup experiment runs this code.
//
// Sequential and SPMD versions advance bit-identically (no reductions
// appear in the time loop and both call curlHRow and curlERow), which the
// tests assert — the paper's transformation-correctness story; the actual
// electromagnetics code was validated the same way ("the final parallel
// version needed no debugging; it ran correctly on the first execution").
package fdtd

import (
	"math"

	"repro/internal/array"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// Vec3 holds the three components of a field at one grid point.
type Vec3 = [3]float64

// Params configures a cavity simulation on an N×N×N grid.
type Params struct {
	N int
	// Courant is dt/Δ; stability requires Courant < 1/√3.
	Courant float64
	// PulseWidth is the Gaussian source width as a fraction of the
	// domain; Amplitude its peak Ez.
	PulseWidth float64
	Amplitude  float64
}

// DefaultParams returns a stable cavity configuration.
func DefaultParams(n int) Params {
	return Params{N: n, Courant: 0.5 / math.Sqrt(3), PulseWidth: 0.12, Amplitude: 1}
}

// pulse is the initial Ez distribution.
func (pm *Params) pulse(i, j, k int) float64 {
	n := float64(pm.N)
	x := (float64(i) + 0.5) / n
	y := (float64(j) + 0.5) / n
	z := (float64(k) + 0.5) / n
	r2 := (x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.5)*(z-0.5)
	return pm.Amplitude * math.Exp(-r2/(pm.PulseWidth*pm.PulseWidth))
}

// updateFlops is the per-point cost of one curl update (three components,
// six adds/subs and two multiplies each).
const updateFlops = 24

// curlH computes the H update at a point from E values (Yee scheme,
// uniform spacing absorbed into s = dt/Δ).
func curlH(h, e, exp, eyp, ezp Vec3, s float64) Vec3 {
	// exp/eyp/ezp are E at (i+1), (j+1), (k+1) respectively.
	return Vec3{
		h[0] - s*((eyp[2]-e[2])-(ezp[1]-e[1])), // Hx -= s·(dEz/dy - dEy/dz)
		h[1] - s*((ezp[0]-e[0])-(exp[2]-e[2])), // Hy -= s·(dEx/dz - dEz/dx)
		h[2] - s*((exp[1]-e[1])-(eyp[0]-e[0])), // Hz -= s·(dEy/dx - dEx/dy)
	}
}

// curlE computes the E update at a point from H values.
func curlE(e, h, hxm, hym, hzm Vec3, s float64) Vec3 {
	// hxm/hym/hzm are H at (i-1), (j-1), (k-1) respectively.
	return Vec3{
		e[0] + s*((h[2]-hym[2])-(h[1]-hzm[1])), // Ex += s·(dHz/dy - dHy/dz)
		e[1] + s*((h[0]-hzm[0])-(h[2]-hxm[2])), // Ey += s·(dHx/dz - dHz/dx)
		e[2] + s*((h[1]-hxm[1])-(h[0]-hym[0])), // Ez += s·(dHy/dx - dHx/dy)
	}
}

// curlHRow and curlERow are the arithmetic of both program versions: one
// k-pencil of a half-step, updated in place. With n = len(h) points, exp
// and eyp are the E pencils at i+1 and j+1 and e the n+1 values of E from
// the pencil's first point to one past its last (the k+1 neighbour).
func curlHRow(h, e, exp, eyp []Vec3, s float64) {
	n := len(h)
	exp, eyp = exp[:n], eyp[:n]
	e, ezp := e[:n], e[1:n+1]
	for k := range h {
		h[k] = curlH(h[k], e[k], exp[k], eyp[k], ezp[k], s)
	}
}

// curlERow mirrors curlHRow: hxm and hym are the H pencils at i-1 and j-1,
// and h the n+1 values of H from one before the pencil's first point (the
// k-1 neighbour) to its last.
func curlERow(e, h, hxm, hym []Vec3, s float64) {
	n := len(e)
	hxm, hym = hxm[:n], hym[:n]
	hzm, h := h[:n], h[1:n+1]
	for k := range e {
		e[k] = curlE(e[k], h[k], hxm[k], hym[k], hzm[k], s)
	}
}

// addEnergy returns sum plus Σ(E²+H²) over es and hs, adding point by
// point in storage order: both versions scan their points flat, the SPMD
// one its owned planes, so they round alike.
func addEnergy(sum float64, es, hs []Vec3) float64 {
	hs = hs[:len(es)]
	for k, e := range es {
		h := hs[k]
		sum += e[0]*e[0] + e[1]*e[1] + e[2]*e[2] + h[0]*h[0] + h[1]*h[1] + h[2]*h[2]
	}
	return sum
}

// Sim is the distributed (SPMD) cavity simulation.
type Sim struct {
	Pm   Params
	E, H *meshspectral.Grid3D[Vec3]
}

// NewSPMD builds the distributed simulation as process p's body.
func NewSPMD(p spmd.Comm, pm Params) *Sim {
	s := &Sim{Pm: pm}
	s.E = meshspectral.New3D[Vec3](p, pm.N, pm.N, pm.N, 1)
	s.H = meshspectral.New3D[Vec3](p, pm.N, pm.N, pm.N, 1)
	s.E.Fill(func(gi, gj, gk int) Vec3 {
		return Vec3{0, 0, pm.pulse(gi, gj, gk)}
	})
	s.H.Fill(func(gi, gj, gk int) Vec3 { return Vec3{} })
	return s
}

// Step advances one Yee time step. Each half-step is one grid operation
// over its region clipped to the owned slab: a view of the region's planes
// and their ring in both fields (they share shape and halo, so their
// strides and offsets agree), the curl kernel on every k-pencil, and the
// flops charged once, after the pencils, on a rank whose clipped region
// holds a point.
func (s *Sim) Step() {
	n := s.Pm.N
	cdt := s.Pm.Courant
	p := s.E.Proc()
	ox0, ox1 := s.E.OwnedX()

	// Half-step 1: H from curl E on [0, n-1)³. Needs E at +1 in each axis.
	s.E.ExchangeBoundary()
	if x0, x1 := ox0, min(ox1, n-1); x1 > x0 {
		e, plane, row, off := s.E.View(x0, x1)
		h, _, _, _ := s.H.View(x0, x1)
		for i := off; i < off+(x1-x0)*plane; i += plane {
			for r := i; r < i+(n-1)*row; r += row {
				curlHRow(h[r:r+n-1], e[r:], e[r+plane:], e[r+row:], cdt)
			}
		}
		p.Flops(updateFlops * float64((x1-x0)*(n-1)*(n-1)))
	}

	// Half-step 2: E from curl H on [1, n-1)³ (tangential E at the cavity
	// walls stays zero — PEC boundary). Needs H at -1.
	s.H.ExchangeBoundary()
	if x0, x1 := max(ox0, 1), min(ox1, n-1); x1 > x0 {
		h, plane, row, off := s.H.View(x0, x1)
		e, _, _, _ := s.E.View(x0, x1)
		for i := off; i < off+(x1-x0)*plane; i += plane {
			for r := i + row + 1; r < i+(n-1)*row; r += row {
				curlERow(e[r:r+n-2], h[r-1:], h[r-plane:], h[r-row:], cdt)
			}
		}
		p.Flops(updateFlops * float64((x1-x0)*(n-2)*(n-2)))
	}
}

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Energy returns the total field energy ½Σ(E²+H²), identical on every
// process (sum reduction; floating-point order fixed by the reduction
// tree).
func (s *Sim) Energy() float64 {
	x0, x1 := s.E.OwnedX()
	n := s.Pm.N
	e, plane, _, off := s.E.View(x0, x1)
	h, _, _, _ := s.H.View(x0, x1)
	end := off + (x1-x0)*plane
	local := addEnergy(0, e[off:end], h[off:end])
	p := s.E.Proc()
	p.Flops(6 * float64((x1-x0)*n*n))
	return 0.5 * collective.AllReduce(p, local, func(a, b float64) float64 { return a + b })
}

// SeqSim is the sequential simulation, advancing bit-identically to the
// SPMD version.
type SeqSim struct {
	Pm   Params
	E, H *array.Dense3D[Vec3]
}

// NewSeq builds the sequential simulation.
func NewSeq(pm Params) *SeqSim {
	s := &SeqSim{Pm: pm}
	s.E = array.New3D[Vec3](pm.N, pm.N, pm.N)
	s.H = array.New3D[Vec3](pm.N, pm.N, pm.N)
	s.E.Fill(func(i, j, k int) Vec3 { return Vec3{0, 0, pm.pulse(i, j, k)} })
	return s
}

// Step advances one Yee time step, charging m.
func (s *SeqSim) Step(m core.Meter) {
	n := s.Pm.N
	cdt := s.Pm.Courant
	e, h := s.E, s.H
	for i := 0; i < n-1; i++ {
		for j := 0; j < n-1; j++ {
			curlHRow(h.Pencil(i, j)[:n-1], e.Pencil(i, j), e.Pencil(i+1, j), e.Pencil(i, j+1), cdt)
		}
	}
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			curlERow(e.Pencil(i, j)[1:n-1], h.Pencil(i, j)[:n-1], h.Pencil(i-1, j)[1:], h.Pencil(i, j-1)[1:], cdt)
		}
	}
	hPts := float64((n - 1) * (n - 1) * (n - 1))
	ePts := float64((n - 2) * (n - 2) * (n - 2))
	m.Flops(updateFlops * (hPts + ePts))
}

// Run advances n steps.
func (s *SeqSim) Run(m core.Meter, n int) {
	for i := 0; i < n; i++ {
		s.Step(m)
	}
}

// Energy returns the sequential total field energy.
func (s *SeqSim) Energy() float64 {
	return 0.5 * addEnergy(0, s.E.Data, s.H.Data)
}
