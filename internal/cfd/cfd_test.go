package cfd

import (
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

func TestPostShockRankineHugoniot(t *testing.T) {
	rho, u, p := postShock(1.4, 1.5)
	// Textbook values for M=1.5, γ=1.4.
	if math.Abs(p-2.4583) > 1e-3 {
		t.Errorf("post-shock pressure = %g, want ~2.458", p)
	}
	if math.Abs(rho-1.8621) > 1e-3 {
		t.Errorf("post-shock density = %g, want ~1.862", rho)
	}
	if u <= 0 {
		t.Errorf("post-shock velocity should push in +x, got %g", u)
	}
	// M → 1 recovers the undisturbed state.
	rho1, u1, p1 := postShock(1.4, 1)
	if math.Abs(rho1-1) > 1e-12 || math.Abs(u1) > 1e-12 || math.Abs(p1-1) > 1e-12 {
		t.Errorf("M=1 shock should be trivial: %g %g %g", rho1, u1, p1)
	}
}

func TestPrimConsRoundtrip(t *testing.T) {
	c := prim2cons(1.4, 2, 0.5, -0.3, 1.7)
	if math.Abs(Pressure(1.4, c)-1.7) > 1e-12 {
		t.Errorf("pressure roundtrip = %g, want 1.7", Pressure(1.4, c))
	}
	if c[0] != 2 || math.Abs(c[1]/c[0]-0.5) > 1e-12 || math.Abs(c[2]/c[0]+0.3) > 1e-12 {
		t.Errorf("cons vars wrong: %v", c)
	}
}

func TestFluxesConsistency(t *testing.T) {
	// For a state with velocity u and no v, the mass flux is ρu and the
	// y-flux's mass component is 0.
	c := prim2cons(1.4, 2, 0.7, 0, 1)
	f, g := fluxX(1.4, c), fluxY(1.4, c)
	if math.Abs(f[0]-1.4) > 1e-12 {
		t.Errorf("mass flux = %g, want 1.4", f[0])
	}
	if g[0] != 0 {
		t.Errorf("y mass flux = %g, want 0", g[0])
	}
	// Momentum flux includes pressure: ρu² + p = 2·0.49 + 1.
	if math.Abs(f[1]-(2*0.49+1)) > 1e-12 {
		t.Errorf("momentum flux = %g", f[1])
	}
	// The two directions are one formula under x↔y: the y-flux of a state
	// is the x-flux of the state with its momenta swapped, with the two
	// momentum components swapped back.
	c = prim2cons(1.4, 1.3, 0.7, -0.4, 2.1)
	sw := fluxX(1.4, Cell{c[0], c[2], c[1], c[3]})
	if got, want := fluxY(1.4, c), (Cell{sw[0], sw[2], sw[1], sw[3]}); got != want {
		t.Errorf("fluxY = %v, want fluxX mirrored = %v", got, want)
	}
}

func TestUniformFlowIsSteady(t *testing.T) {
	// A uniform state must be an exact fixed point of the scheme.
	pm := DefaultParams(16, 16)
	pm.Mach = 1         // no shock
	pm.RhoHeavy = 1     // no interface
	pm.InterfaceAmp = 0 //
	s := NewSeq(pm)
	before := s.U.Clone()
	s.Run(core.Nop, 5)
	for k := range before.Data {
		for c := 0; c < 4; c++ {
			if math.Abs(s.U.Data[k][c]-before.Data[k][c]) > 1e-12 {
				t.Fatalf("uniform flow drifted at %d comp %d", k, c)
			}
		}
	}
}

func TestShockMoves(t *testing.T) {
	pm := DefaultParams(64, 16)
	s := NewSeq(pm)
	rho0 := Density(s.U)
	s.Run(core.Nop, 30)
	rho1 := Density(s.U)
	// The density at a point ahead of the initial shock but behind where
	// it should have moved must have risen.
	moved := false
	for i := 0; i < 64; i++ {
		x := (float64(i) + 0.5) / 64
		if x > pm.ShockX && x < pm.InterfaceX {
			if rho1.At(i, 8) > rho0.At(i, 8)+0.1 {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("shock does not appear to propagate")
	}
}

func TestMassConservedWithoutShock(t *testing.T) {
	// With no shock (M=1) the flow is everywhere at rest; only numerical
	// diffusion acts at the interface, far from the boundaries, so total
	// mass is conserved to rounding.
	pm := DefaultParams(64, 32)
	pm.Mach = 1
	s := NewSeq(pm)
	m0 := TotalMass(s.U)
	s.Run(core.Nop, 20)
	m1 := TotalMass(s.U)
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drifted by %g relative", rel)
	}
}

func TestShockInflowAddsMass(t *testing.T) {
	// The left boundary is a post-shock inflow: total mass must grow.
	pm := DefaultParams(64, 32)
	s := NewSeq(pm)
	m0 := TotalMass(s.U)
	s.Run(core.Nop, 20)
	if m1 := TotalMass(s.U); m1 <= m0 {
		t.Errorf("inflow should add mass: %g -> %g", m0, m1)
	}
}

func TestPositivity(t *testing.T) {
	pm := DefaultParams(64, 32)
	s := NewSeq(pm)
	s.Run(core.Nop, 100)
	for k, c := range s.U.Data {
		if c[0] <= 0 {
			t.Fatalf("negative density at %d: %g", k, c[0])
		}
		if p := Pressure(pm.Gamma, c); p <= 0 {
			t.Fatalf("negative pressure at %d: %g", k, p)
		}
	}
}

func TestSPMDMatchesSeqBitIdentical(t *testing.T) {
	pm := DefaultParams(32, 16)
	const steps = 15
	seq := NewSeq(pm)
	seq.Run(core.Nop, steps)
	want := seq.U

	for _, tc := range []struct {
		n int
		l meshspectral.Layout
	}{
		{1, meshspectral.Rows(1)},
		{3, meshspectral.Rows(3)},
		{4, meshspectral.Blocks(2, 2)},
		{6, meshspectral.Blocks(3, 2)},
	} {
		var got *array.Dense2D[Cell]
		var dtSum float64
		_, err := spmd.MustWorld(tc.n, machine.IntelDelta()).Run(func(p *spmd.Proc) {
			s := NewSPMD(p, pm, tc.l)
			dt := s.Run(steps)
			full := meshspectral.GatherGrid(s.U, 0)
			if p.Rank() == 0 {
				got = full
				dtSum = dt
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = dtSum
		for k := range want.Data {
			if got.Data[k] != want.Data[k] {
				t.Fatalf("n=%d %v: field differs at %d (not bit-identical)", tc.n, tc.l, k)
			}
		}
	}
}

func TestVorticityOfShear(t *testing.T) {
	// A linear shear u = (y, 0) has vorticity -du/dy = -1... using our
	// sign convention ω = ∂v/∂x − ∂u/∂y = -1.
	const n = 16
	u := array.New2D[Cell](n, n)
	u.Fill(func(i, j int) Cell {
		y := (float64(j) + 0.5) / n
		return prim2cons(1.4, 1, y, 0, 1)
	})
	w := Vorticity(u)
	// Interior points away from the periodic wrap should be ~-1.
	for i := 2; i < n-2; i++ {
		for j := 2; j < n-2; j++ {
			if math.Abs(w.At(i, j)+1) > 1e-9 {
				t.Fatalf("vorticity at (%d,%d) = %g, want -1", i, j, w.At(i, j))
			}
		}
	}
}

func TestDensityExtract(t *testing.T) {
	u := array.New2D[Cell](2, 2)
	u.Set(0, 1, Cell{7, 0, 0, 1})
	d := Density(u)
	if d.At(0, 1) != 7 || d.At(0, 0) != 0 {
		t.Error("Density extraction wrong")
	}
}

func TestInitCellRegions(t *testing.T) {
	pm := DefaultParams(10, 10)
	// Behind the shock: moving, compressed.
	c := pm.InitCell(0.05, 0.5)
	if c[1] <= 0 {
		t.Error("post-shock region should move in +x")
	}
	// Between shock and interface: quiescent light gas.
	c = pm.InitCell(0.3, 0.5)
	if c[0] != 1 || c[1] != 0 {
		t.Errorf("pre-shock light gas wrong: %v", c)
	}
	// Beyond the interface: heavy gas at rest.
	c = pm.InitCell(0.9, 0.5)
	if c[0] != pm.RhoHeavy || c[1] != 0 {
		t.Errorf("heavy gas wrong: %v", c)
	}
}
