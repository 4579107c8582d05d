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

// fluxes returns c's x- and y-flux as fluxRow stores them.
func fluxes(gamma float64, c Cell) (f, g Cell) {
	var fx, fy [1]Cell
	fluxRow(fx[:], fy[:], []Cell{c}, gamma, 1, 1)
	return fx[0], fy[0]
}

func TestFluxesConsistency(t *testing.T) {
	// For a state with velocity u and no v, the mass flux is ρu and the
	// y-flux's mass component is 0.
	c := prim2cons(1.4, 2, 0.7, 0, 1)
	f, g := fluxes(1.4, c)
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
	sw, _ := fluxes(1.4, Cell{c[0], c[2], c[1], c[3]})
	if _, got := fluxes(1.4, c); got != (Cell{sw[0], sw[2], sw[1], sw[3]}) {
		t.Errorf("y-flux = %v, want the x-flux mirrored = %v", got, Cell{sw[0], sw[2], sw[1], sw[3]})
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

// layouts are the SPMD decompositions held bit-identical to SeqSim.
var layouts = []struct {
	n int
	l meshspectral.Layout
}{
	{1, meshspectral.Rows(1)},
	{3, meshspectral.Rows(3)},
	{4, meshspectral.Blocks(2, 2)},
	{6, meshspectral.Blocks(3, 2)},
}

// runSPMD runs the SPMD simulation for steps over layout l, first applying
// edit to every rank's state, and returns the gathered field and the
// simulated time.
func runSPMD(t *testing.T, pm Params, n int, l meshspectral.Layout, steps int, edit func(*Sim)) (*array.Dense2D[Cell], float64) {
	t.Helper()
	var got *array.Dense2D[Cell]
	var simT float64
	_, err := spmd.MustWorld(n, machine.IntelDelta()).Run(func(p *spmd.Proc) {
		s := NewSPMD(p, pm, l)
		edit(s)
		dt := s.Run(steps)
		full := meshspectral.GatherGrid(s.U, 0)
		if p.Rank() == 0 {
			got, simT = full, dt
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, simT
}

func TestSPMDMatchesSeqBitIdentical(t *testing.T) {
	pm := DefaultParams(32, 16)
	const steps = 15
	seq := NewSeq(pm)
	wantT := seq.Run(core.Nop, steps)
	want := seq.U

	for _, tc := range layouts {
		got, gotT := runSPMD(t, pm, tc.n, tc.l, steps, func(*Sim) {})
		for k := range want.Data {
			if got.Data[k] != want.Data[k] {
				t.Fatalf("n=%d %v: field differs at %d (not bit-identical)", tc.n, tc.l, k)
			}
		}
		if math.Float64bits(gotT) != math.Float64bits(wantT) {
			t.Errorf("n=%d %v: simulated time %v, sequential %v (not bit-identical)", tc.n, tc.l, gotT, wantT)
		}
	}
}

// TestNaNDensityPoisonsDt puts a NaN density in one cell: the wave-speed
// fold must carry it into dt on both versions, for every layout, rather
// than skip the cell.
func TestNaNDensityPoisonsDt(t *testing.T) {
	pm := DefaultParams(32, 16)
	const gi, gj = 20, 11
	seq := NewSeq(pm)
	seq.U.Row(gi)[gj][0] = math.NaN()
	if dt := seq.Step(core.Nop); !math.IsNaN(dt) {
		t.Errorf("sequential dt = %v, want NaN", dt)
	}
	for _, tc := range layouts {
		_, dt := runSPMD(t, pm, tc.n, tc.l, 1, func(s *Sim) {
			x0, x1 := s.U.OwnedX()
			y0, y1 := s.U.OwnedY()
			if gi >= x0 && gi < x1 && gj >= y0 && gj < y1 {
				c := s.U.At(gi, gj)
				c[0] = math.NaN()
				s.U.Set(gi, gj, c)
			}
		})
		if !math.IsNaN(dt) {
			t.Errorf("n=%d %v: dt = %v, want NaN", tc.n, tc.l, dt)
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
