package airshed

import (
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

func TestChemistryConservesNOx(t *testing.T) {
	// The two reactions exchange NO and NO₂ one for one: without
	// emissions, NO+NO₂ is pointwise invariant.
	c := Conc{0.3, 0.7, 0.5}
	out := react(c, Conc{}, 0.8, 4.0, 0.01)
	if math.Abs((out[NO]+out[NO2])-(c[NO]+c[NO2])) > 1e-15 {
		t.Errorf("NOx not conserved: %g -> %g", c[NO]+c[NO2], out[NO]+out[NO2])
	}
}

func TestChemistryDirections(t *testing.T) {
	// Pure NO₂ photolyses into NO and O₃.
	out := react(Conc{0, 1, 0}, Conc{}, 0.5, 4, 0.1)
	if out[NO] <= 0 || out[O3] <= 0 || out[NO2] >= 1 {
		t.Errorf("photolysis direction wrong: %v", out)
	}
	// NO titrates O₃ into NO₂.
	out = react(Conc{1, 0, 1}, Conc{}, 0, 4, 0.01)
	if out[NO] >= 1 || out[O3] >= 1 || out[NO2] <= 0 {
		t.Errorf("titration direction wrong: %v", out)
	}
}

func TestReactClampsNegative(t *testing.T) {
	// Overshooting titration must clamp at zero, not go negative.
	out := react(Conc{10, 0, 10}, Conc{}, 0, 100, 1)
	for s := 0; s < NumSpecies; s++ {
		if out[s] < 0 {
			t.Fatalf("species %d negative: %g", s, out[s])
		}
	}
}

func TestUpwindTransportsDownwind(t *testing.T) {
	// A blob advected by positive u moves toward +x.
	pm := DefaultParams(32, 8)
	pm.K = 0
	pm.Vortex = 0
	pm.WindV = 0
	pm.EmitNO = 0
	pm.EmitNO2 = 0
	s := NewSeq(pm)
	s.C.Fill(func(i, j int) Conc {
		if i == 8 {
			return Conc{1, 0, 0}
		}
		return Conc{}
	})
	s.Run(core.Nop, 20)
	var left, right float64
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			left += s.C.At(i, j)[NO]
		}
	}
	for i := 9; i < 32; i++ {
		for j := 0; j < 8; j++ {
			right += s.C.At(i, j)[NO]
		}
	}
	if right <= left {
		t.Errorf("blob did not move downwind: left %g right %g", left, right)
	}
}

func TestPositivityAndStability(t *testing.T) {
	pm := DefaultParams(32, 32)
	s := NewSeq(pm)
	s.Run(core.Nop, 100)
	for k, c := range s.C.Data {
		for sp := 0; sp < NumSpecies; sp++ {
			if c[sp] < 0 || math.IsNaN(c[sp]) || c[sp] > 1e3 {
				t.Fatalf("cell %d species %d out of range: %g", k, sp, c[sp])
			}
		}
	}
}

func TestEmissionsCreatePlume(t *testing.T) {
	pm := DefaultParams(48, 48)
	s := NewSeq(pm)
	s.Run(core.Nop, 120)
	nox := Field(s.C, NO)
	// The city cell and a downwind cell should carry NO; a far upwind
	// corner should stay clean.
	ci, cj := int(pm.CityX*48), int(pm.CityY*48)
	if nox.At(ci, cj) < 1e-3 {
		t.Errorf("no NO at the city: %g", nox.At(ci, cj))
	}
	if nox.At(2, 2) > nox.At(ci, cj)/10 {
		t.Errorf("upwind corner polluted: %g vs city %g", nox.At(2, 2), nox.At(ci, cj))
	}
	// Ozone is depleted near the fresh-NO city relative to background
	// (titration) — the classic urban ozone hole.
	o3 := Field(s.C, O3)
	if o3.At(ci, cj) >= pm.O3Background {
		t.Errorf("no ozone depletion at the city: %g vs background %g", o3.At(ci, cj), pm.O3Background)
	}
}

func TestNOxBudget(t *testing.T) {
	// With no emissions and no wind, NOx is exactly conserved
	// (diffusion with zero-gradient boundaries and chemistry both
	// conserve it).
	pm := DefaultParams(24, 24)
	pm.EmitNO, pm.EmitNO2 = 0, 0
	pm.WindU, pm.WindV, pm.Vortex = 0, 0, 0
	s := NewSeq(pm)
	s.C.Fill(func(i, j int) Conc {
		return Conc{0.1 * float64(i%3), 0.05 * float64(j%2), 0.3}
	})
	n0 := TotalNOx(s.C)
	s.Run(core.Nop, 50)
	n1 := TotalNOx(s.C)
	if math.Abs(n1-n0)/n0 > 1e-12 {
		t.Errorf("NOx drifted with closed budget: %g -> %g", n0, n1)
	}
}

func TestSPMDMatchesSeqBitIdentical(t *testing.T) {
	pm := DefaultParams(24, 16)
	const steps = 10
	seq := NewSeq(pm)
	seq.Run(core.Nop, steps)
	for _, tc := range []struct {
		n int
		l meshspectral.Layout
	}{
		{1, meshspectral.Rows(1)},
		{2, meshspectral.Cols(2)},
		{4, meshspectral.Blocks(2, 2)},
		{6, meshspectral.Blocks(2, 3)},
	} {
		var got *array.Dense2D[Conc]
		_, err := spmd.MustWorld(tc.n, machine.IntelDelta()).Run(func(p *spmd.Proc) {
			s := NewSPMD(p, pm, tc.l)
			s.Run(steps)
			full := meshspectral.GatherGrid(s.C, 0)
			if p.Rank() == 0 {
				got = full
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range seq.C.Data {
			if got.Data[k] != seq.C.Data[k] {
				t.Fatalf("n=%d %v: field differs at %d (not bit-identical)", tc.n, tc.l, k)
			}
		}
	}
}

func TestWindField(t *testing.T) {
	pm := DefaultParams(16, 16)
	// At the basin centre the vortex contributes nothing.
	u, v := pm.Wind(0.5, 0.5)
	if u != pm.WindU || v != pm.WindV {
		t.Errorf("centre wind = (%g,%g), want (%g,%g)", u, v, pm.WindU, pm.WindV)
	}
	// The vortex is a rotation: velocity difference across the centre
	// is antisymmetric.
	u1, v1 := pm.Wind(0.7, 0.5)
	u2, v2 := pm.Wind(0.3, 0.5)
	if math.Abs((u1-pm.WindU)+(u2-pm.WindU)) > 1e-15 || math.Abs((v1-pm.WindV)+(v2-pm.WindV)) > 1e-15 {
		t.Error("vortex not antisymmetric about centre")
	}
}

// BenchmarkAirshedSeqStep is the kernel under airshed's profile: one
// sequential time step at the app's default size (a 48×48 grid), with
// its allocations.
func BenchmarkAirshedSeqStep(b *testing.B) {
	s := NewSeq(DefaultParams(48, 48))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(core.Nop)
	}
}
