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
// per-row/per-column kernels; redistribution moves data without
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

// stepRFD advances the radial diffusion of one axial station with
// fourth-order central differences (second-order one level from the
// boundaries), explicit Euler. col[0] and col[NR-1] stay pinned at zero.
// newCol receives the result; both slices have length NR.
func stepRFD(m core.Meter, col, newCol []complex128, nu, dt, dr float64) {
	n := len(col)
	newCol[0] = 0
	newCol[n-1] = 0
	inv12dr2 := 1 / (12 * dr * dr)
	inv12dr := 1 / (12 * dr)
	inv2dr := 1 / (2 * dr)
	invdr2 := 1 / (dr * dr)
	for i := 1; i < n-1; i++ {
		r := float64(i) * dr
		var d2, d1 complex128
		if i >= 2 && i <= n-3 {
			d2 = (-col[i-2] + 16*col[i-1] - 30*col[i] + 16*col[i+1] - col[i+2]) * complex(inv12dr2, 0)
			d1 = (col[i-2] - 8*col[i-1] + 8*col[i+1] - col[i+2]) * complex(inv12dr, 0)
		} else {
			d2 = (col[i-1] - 2*col[i] + col[i+1]) * complex(invdr2, 0)
			d1 = (col[i+1] - col[i-1]) * complex(inv2dr, 0)
		}
		lap := d2 + d1*complex(1/r, 0) - col[i]*complex(1/(r*r), 0)
		newCol[i] = col[i] + complex(nu*dt, 0)*lap
	}
	m.Flops(float64(22 * n))
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
	s.U.RowOp(func(gi int, row []complex128) {
		stepZSpectral(p, row, pm.Nu, pm.Dt)
	})

	// Redistribute rows → columns for the radial operation (Figure 7).
	cols := s.U.Redistribute(meshspectral.Cols(p.N()))
	buf := make([]complex128, pm.NR)
	cols.ColOp(func(gj int, col []complex128) {
		stepRFD(p, col, buf, pm.Nu, pm.Dt, pm.dr())
		copy(col, buf)
	})

	// Grid operation: add the stirring force (no distribution
	// requirement; done while by columns).
	cols.Assign(4, func(gi, y0, y1 int, out []complex128) {
		pm.forceRow(out, gi, y0)
	})

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
	col := make([]complex128, pm.NR)
	buf := make([]complex128, pm.NR)
	for j := 0; j < pm.NZ; j++ {
		s.U.Col(j, col)
		stepRFD(m, col, buf, pm.Nu, pm.Dt, pm.dr())
		s.U.SetCol(j, buf)
	}
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
