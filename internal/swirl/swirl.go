// Package swirl implements the incompressible-flow application of §3.7.3:
// an axisymmetric swirling flow, periodic in the axial direction, solved
// with a Fourier spectral method in the periodic direction and
// finite differences in the radial direction, on the 2D spectral
// archetype.
//
// The model is the azimuthal-velocity equation of an axisymmetric
// incompressible swirl driven by a steady stirring force:
//
//	∂u/∂t = ν(∂²u/∂z² + ∂²u/∂r² + (1/r)∂u/∂r − u/r²) + F(r, z)
//
// with u(r=0) = u(r=R) = 0 (axis regularity and no-slip wall) and
// periodicity in z. Each step is pure spectral archetype (§3.2):
//
//  1. a row operation — FFT each radial ring along z, apply the exact
//     integrating factor exp(−ν kz² dt) per mode, inverse FFT — on data
//     distributed by rows;
//  2. a redistribution from rows to columns (Figure 7);
//  3. a column operation — fourth-order finite-difference radial
//     diffusion — on data distributed by columns;
//  4. a grid operation adding the forcing, and the redistribution back.
//
// The sequential and SPMD versions advance bit-identically (shared
// per-ring and block kernels; redistribution moves data without
// arithmetic). Figure 18's speedup experiment runs this code with the
// machine's paging model enabled, reproducing the paper's super-linear
// small-P anomaly; Figure 21's sample output is its u(r, z) field.
package swirl

import (
	"math"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// Params configures a swirl simulation on an NR×NZ grid (NR radial rings
// including axis and wall, NZ axial points; NZ must be a power of two).
type Params struct {
	NR, NZ int
	// Nu is the kinematic viscosity.
	Nu float64
	// Dt is the time step; DefaultParams picks a stable one.
	Dt float64
	// Amp is the stirring-force amplitude.
	Amp float64
}

// DefaultParams returns a stable configuration.
func DefaultParams(nr, nz int) Params {
	dr := 1 / float64(nr-1)
	nu := 5e-3
	return Params{
		NR: nr, NZ: nz,
		Nu: nu,
		// Explicit radial diffusion stability: dt < dr²/(4ν) with the
		// curvature terms; keep a wide margin.
		Dt:  0.2 * dr * dr / nu,
		Amp: 1,
	}
}

// dr returns the radial spacing (domain radius 1).
func (pm *Params) dr() float64 { return 1 / float64(pm.NR-1) }

// forcing is the steady azimuthal stirring force at ring i, axial j.
func (pm *Params) forcing(i, j int) float64 {
	r := float64(i) * pm.dr()
	z := float64(j) / float64(pm.NZ)
	return pm.Amp * r * (1 - r*r) * (1 + 0.6*math.Sin(2*math.Pi*z)) * math.Exp(-8*(r-0.5)*(r-0.5))
}

// stepZSpectral advances the axial diffusion of one ring exactly in
// Fourier space: û_k *= exp(−ν kz² dt). Shared by both program versions
// so they advance bit-identically.
func stepZSpectral(m core.Meter, row []complex128, nu, dt float64) {
	n := len(row)
	fft.Transform(m, row, false)
	for k := range row {
		// Wavenumber with the usual aliasing fold: modes above n/2
		// represent negative frequencies.
		kk := k
		if kk > n/2 {
			kk = n - kk
		}
		kz := 2 * math.Pi * float64(kk)
		row[k] *= complex(math.Exp(-nu*kz*kz*dt), 0)
	}
	m.Flops(float64(6 * n))
	fft.Transform(m, row, true)
}

// stepRFD advances the radial diffusion of the row-major NR×nz block u —
// rings down, nz axial stations across — with fourth-order central
// differences (second-order one ring from the boundaries), explicit
// Euler, into next (same shape). Rings 0 and NR-1 stay pinned at zero.
// Ring i of next is computed from rings i−2…i+2 of u, element by element
// with the expression a station-at-a-time loop would use, and the charge
// is one Flops per station in station order, so the SPMD version (its
// column block) and the sequential one (the whole field) advance
// bit-identically and charge alike.
func (pm *Params) stepRFD(m core.Meter, u, next []complex128, nz int) {
	n, dr := pm.NR, pm.dr()
	ring := func(a []complex128, i int) []complex128 { return a[i*nz : (i+1)*nz] }
	clear(ring(next, 0))
	clear(ring(next, n-1))
	inv12dr2 := 1 / (12 * dr * dr)
	inv12dr := 1 / (12 * dr)
	inv2dr := 1 / (2 * dr)
	invdr2 := 1 / (dr * dr)
	for i := 1; i < n-1; i++ {
		r := float64(i) * dr
		c, lo, hi, out := ring(u, i), ring(u, i-1), ring(u, i+1), ring(next, i)
		wide := i >= 2 && i <= n-3
		var lo2, hi2 []complex128
		if wide {
			lo2, hi2 = ring(u, i-2), ring(u, i+2)
		}
		for k := range out {
			var d2, d1 complex128
			if wide {
				d2 = (-lo2[k] + 16*lo[k] - 30*c[k] + 16*hi[k] - hi2[k]) * complex(inv12dr2, 0)
				d1 = (lo2[k] - 8*lo[k] + 8*hi[k] - hi2[k]) * complex(inv12dr, 0)
			} else {
				d2 = (lo[k] - 2*c[k] + hi[k]) * complex(invdr2, 0)
				d1 = (hi[k] - lo[k]) * complex(inv2dr, 0)
			}
			lap := d2 + d1*complex(1/r, 0) - c[k]*complex(1/(r*r), 0)
			out[k] = c[k] + complex(pm.Nu*pm.Dt, 0)*lap
		}
	}
	for range nz {
		m.Flops(float64(22 * n))
	}
}

// forceRow adds one step of the stirring force to ring i in place; row[j]
// is axial station j0+j. Shared by both program versions.
func (pm *Params) forceRow(row []complex128, i, j0 int) {
	for j := range row {
		row[j] += complex(pm.forcing(i, j0+j)*pm.Dt, 0)
	}
}

// Sim is the distributed (SPMD) simulation. U is held distributed by
// rows between steps.
type Sim struct {
	Pm Params
	U  *meshspectral.Grid2D[complex128]
}

// ResidentBytes returns the per-process resident-set estimate declared to
// the paging model: two copies of the local section (the grid plus the
// redistribution target), complex128 elements.
func (pm *Params) ResidentBytes(nprocs int) float64 {
	return 2 * 16 * float64(pm.NR) * float64(pm.NZ) / float64(nprocs)
}

// NewSPMD builds the distributed simulation as process p's body and
// declares its resident set to the machine's paging model.
func NewSPMD(p spmd.Comm, pm Params) *Sim {
	s := &Sim{Pm: pm}
	s.U = meshspectral.New2D[complex128](p, pm.NR, pm.NZ, meshspectral.Rows(p.N()), 0)
	s.U.Fill(func(gi, gj int) complex128 { return 0 })
	p.SetResident(pm.ResidentBytes(p.N()))
	return s
}

// Step advances one time step.
func (s *Sim) Step() {
	p := s.U.Proc()
	pm := s.Pm

	// Row operation: exact axial diffusion per ring (rows distribution).
	// Ring by ring, not TransformRows over the block: a ring charges its
	// forward transform, mode scaling and inverse transform in turn, and
	// batching the rings would reorder the virtual clock's additions.
	s.U.RowOp(func(u []complex128, nr, nz int) {
		for i := range nr {
			stepZSpectral(p, u[i*nz:(i+1)*nz], pm.Nu, pm.Dt)
		}
	})

	// Redistribute rows → columns for the radial operation (Figure 7).
	cols := s.U.Redistribute(meshspectral.Cols(p.N()))
	cols.ColOp(func(u []complex128, _, nz int) {
		next := make([]complex128, len(u))
		pm.stepRFD(p, u, next, nz)
		copy(u, next)
	})

	// Grid operation: add the stirring force (no distribution
	// requirement; done while by columns).
	x0, x1 := cols.OwnedX()
	y0, y1 := cols.OwnedY()
	if n := y1 - y0; x1 > x0 && n > 0 {
		u, st, off := cols.View(x0, x1, y0, y1)
		for gi, r := x0, off; gi < x1; gi, r = gi+1, r+st {
			pm.forceRow(u[r:r+n], gi, y0)
		}
		p.Flops(4 * float64((x1-x0)*n))
	}

	// Restore the row distribution.
	s.U = cols.Redistribute(meshspectral.Rows(p.N()))
}

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// SeqSim is the sequential version, advancing bit-identically to the
// SPMD one.
type SeqSim struct {
	Pm Params
	U  *array.Dense2D[complex128]
}

// NewSeq builds the sequential simulation.
func NewSeq(pm Params) *SeqSim {
	return &SeqSim{Pm: pm, U: array.New2D[complex128](pm.NR, pm.NZ)}
}

// Step advances one time step, charging m.
func (s *SeqSim) Step(m core.Meter) {
	pm := s.Pm
	for i := 0; i < pm.NR; i++ {
		stepZSpectral(m, s.U.Row(i), pm.Nu, pm.Dt)
	}
	next := make([]complex128, len(s.U.Data))
	pm.stepRFD(m, s.U.Data, next, pm.NZ)
	s.U.Data = next
	for i := 0; i < pm.NR; i++ {
		pm.forceRow(s.U.Row(i), i, 0)
	}
	m.MemWords(float64(4 * pm.NR * pm.NZ))
	m.Flops(float64(4 * pm.NR * pm.NZ))
}

// Run advances n steps.
func (s *SeqSim) Run(m core.Meter, n int) {
	for i := 0; i < n; i++ {
		s.Step(m)
	}
}

// AzimuthalVelocity extracts the real u(r, z) field from a gathered
// complex array — the Figure 21 sample output.
func AzimuthalVelocity(u *array.Dense2D[complex128]) *array.Dense2D[float64] {
	out := array.New2D[float64](u.NX, u.NY)
	for k, v := range u.Data {
		out.Data[k] = real(v)
	}
	return out
}

// KineticEnergy returns ½Σ|u|² over the field.
func KineticEnergy(u *array.Dense2D[complex128]) float64 {
	sum := 0.0
	for _, v := range u.Data {
		sum += real(v)*real(v) + imag(v)*imag(v)
	}
	return 0.5 * sum
}
