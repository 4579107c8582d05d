package swirl

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

func TestStepZSpectralSingleMode(t *testing.T) {
	// A pure Fourier mode decays by exactly exp(-ν kz² dt).
	const n = 32
	nu, dt := 0.01, 0.05
	row := make([]complex128, n)
	for j := range row {
		row[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(j)/n))
	}
	orig := append([]complex128(nil), row...)
	stepZSpectral(core.Nop, row, nu, dt)
	decay := math.Exp(-nu * 4 * math.Pi * math.Pi * dt)
	for j := range row {
		want := orig[j] * complex(decay, 0)
		if cmplx.Abs(row[j]-want) > 1e-10 {
			t.Fatalf("mode decay wrong at %d: %v vs %v", j, row[j], want)
		}
	}
}

func TestStepZSpectralConstantModeUnchanged(t *testing.T) {
	row := []complex128{3, 3, 3, 3, 3, 3, 3, 3}
	stepZSpectral(core.Nop, row, 0.1, 0.1)
	for j, v := range row {
		if cmplx.Abs(v-3) > 1e-12 {
			t.Fatalf("DC mode changed at %d: %v", j, v)
		}
	}
}

func TestStepRFDBoundariesPinned(t *testing.T) {
	const n = 17
	pm := Params{NR: n, Nu: 0.01, Dt: 0.001}
	col := make([]complex128, n)
	buf := make([]complex128, n)
	for i := range col {
		col[i] = complex(float64(i), 0)
	}
	pm.stepRFD(core.Nop, col, buf, 1)
	if buf[0] != 0 || buf[n-1] != 0 {
		t.Errorf("boundaries not pinned: %v %v", buf[0], buf[n-1])
	}
}

// refStepRFD is stepRFD as it was before the block form: one axial
// station, a column copied out of the field, at a time.
func refStepRFD(m core.Meter, col, newCol []complex128, nu, dt, dr float64) {
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

// chargeTap records every Flops charge, in order.
type chargeTap struct {
	core.Meter
	charges []float64
}

func (c *chargeTap) Flops(n float64) { c.charges = append(c.charges, n) }

// TestStepRFDMatchesPerStation: the block kernel is the station-at-a-time
// loop it replaced, bit for bit and Flops call for Flops call, on blocks
// of every ring count from the two-ring minimum and of no, one and many
// stations.
func TestStepRFDMatchesPerStation(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for nr := 2; nr <= 9; nr++ {
		for _, nz := range []int{0, 1, 3, 8} {
			pm := DefaultParams(nr, 8)
			u := make([]complex128, nr*nz)
			for k := range u {
				u[k] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			got := make([]complex128, len(u))
			gm := &chargeTap{Meter: core.Nop}
			pm.stepRFD(gm, u, got, nz)

			want := &array.Dense2D[complex128]{NX: nr, NY: nz, Data: make([]complex128, len(u))}
			field := &array.Dense2D[complex128]{NX: nr, NY: nz, Data: u}
			wm := &chargeTap{Meter: core.Nop}
			col, buf := make([]complex128, nr), make([]complex128, nr)
			for j := 0; j < nz; j++ {
				refStepRFD(wm, field.Col(j, col), buf, pm.Nu, pm.Dt, pm.dr())
				want.SetCol(j, buf)
			}
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want.Data[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want.Data[k])) {
					t.Fatalf("%d×%d: element %d = %v, want %v", nr, nz, k, got[k], want.Data[k])
				}
			}
			if !slices.Equal(gm.charges, wm.charges) {
				t.Fatalf("%d×%d: Flops calls %v, want %v", nr, nz, gm.charges, wm.charges)
			}
		}
	}
}

func TestStepRFDDecaysEnergy(t *testing.T) {
	// Radial diffusion with pinned ends must not increase the energy of
	// a smooth profile (stable explicit step).
	const n = 33
	dr := 1.0 / (n - 1)
	pm := DefaultParams(n, 8)
	col := make([]complex128, n)
	for i := 1; i < n-1; i++ {
		r := float64(i) * dr
		col[i] = complex(math.Sin(math.Pi*r)*r, 0)
	}
	buf := make([]complex128, n)
	e0 := 0.0
	for _, v := range col {
		e0 += real(v) * real(v)
	}
	for step := 0; step < 50; step++ {
		pm.stepRFD(core.Nop, col, buf, 1)
		copy(col, buf)
	}
	e1 := 0.0
	for _, v := range col {
		e1 += real(v) * real(v)
	}
	if e1 >= e0 {
		t.Errorf("radial diffusion grew energy: %g -> %g", e0, e1)
	}
}

func TestUnforcedDecay(t *testing.T) {
	pm := DefaultParams(17, 16)
	pm.Amp = 0
	s := NewSeq(pm)
	// Seed with the forcing shape.
	s.U.Fill(func(i, j int) complex128 {
		forced := DefaultParams(17, 16)
		return complex(forced.forcing(i, j), 0)
	})
	e0 := KineticEnergy(s.U)
	s.Run(core.Nop, 30)
	e1 := KineticEnergy(s.U)
	if e1 >= e0 {
		t.Errorf("unforced flow should decay: %g -> %g", e0, e1)
	}
	if e1 <= 0 {
		t.Errorf("energy went non-positive: %g", e1)
	}
}

func TestForcedSpinUp(t *testing.T) {
	pm := DefaultParams(17, 16)
	s := NewSeq(pm)
	s.Run(core.Nop, 30)
	if e := KineticEnergy(s.U); e <= 0 {
		t.Errorf("forced flow failed to spin up: energy %g", e)
	}
	// The field stays essentially real.
	for k, v := range s.U.Data {
		if math.Abs(imag(v)) > 1e-10 {
			t.Fatalf("imaginary residue at %d: %g", k, imag(v))
		}
	}
	// Boundaries pinned.
	for j := 0; j < pm.NZ; j++ {
		if s.U.At(0, j) != 0 || s.U.At(pm.NR-1, j) != 0 {
			t.Fatal("boundary rings not pinned at zero")
		}
	}
}

func TestSPMDMatchesSeqBitIdentical(t *testing.T) {
	pm := DefaultParams(17, 16)
	const steps = 8
	seq := NewSeq(pm)
	seq.Run(core.Nop, steps)

	for _, n := range []int{1, 2, 4} {
		var got *array.Dense2D[complex128]
		_, err := spmd.MustWorld(n, machine.IBMSP()).Run(func(p *spmd.Proc) {
			s := NewSPMD(p, pm)
			s.Run(steps)
			full := meshspectral.GatherGrid(s.U, 0)
			if p.Rank() == 0 {
				got = full
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range seq.U.Data {
			if got.Data[k] != seq.U.Data[k] {
				t.Fatalf("n=%d: field differs at %d (not bit-identical)", n, k)
			}
		}
	}
}

func TestPagingModelEngages(t *testing.T) {
	// Identical work must take longer on a paged machine when the
	// resident set exceeds capacity — the Figure 18 mechanism.
	pm := DefaultParams(17, 16)
	runOn := func(m *machine.Model) float64 {
		res, err := spmd.MustWorld(2, m).Run(func(p *spmd.Proc) {
			s := NewSPMD(p, pm)
			s.Run(3)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	normal := runOn(machine.IBMSP())
	paged := runOn(machine.IBMSPPaged(pm.ResidentBytes(2)/2, 4))
	if paged <= normal*1.5 {
		t.Errorf("paging model had no effect: %g vs %g", paged, normal)
	}
}

func TestAzimuthalVelocityExtract(t *testing.T) {
	u := array.New2D[complex128](2, 2)
	u.Set(1, 0, complex(2.5, 1e-13))
	v := AzimuthalVelocity(u)
	if v.At(1, 0) != 2.5 || v.At(0, 0) != 0 {
		t.Error("extraction wrong")
	}
}

func TestResidentBytes(t *testing.T) {
	pm := DefaultParams(65, 64)
	if pm.ResidentBytes(1) != 2*16*65*64 {
		t.Errorf("ResidentBytes(1) = %g", pm.ResidentBytes(1))
	}
	if pm.ResidentBytes(4) != pm.ResidentBytes(1)/4 {
		t.Error("resident set should scale with 1/P")
	}
}

// BenchmarkSwirlSeqStep is the kernel under swirl's profile: one
// sequential time step at the app's default size (129 rings × 128 axial
// points), with its allocations.
func BenchmarkSwirlSeqStep(b *testing.B) {
	s := NewSeq(DefaultParams(129, 128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(core.Nop)
	}
}
