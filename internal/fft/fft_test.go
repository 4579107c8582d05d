package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

func randComplex(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	e := 0.0
	for i := range a {
		e = math.Max(e, cmplx.Abs(a[i]-b[i]))
	}
	return e
}

func TestTransformMatchesDFT(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16, 64} {
		a := randComplex(n, int64(n))
		want := DFT(a, false)
		got := append([]complex128(nil), a...)
		Transform(core.Nop, got, false)
		if e := maxErr(got, want); e > 1e-9 {
			t.Errorf("n=%d: FFT vs DFT max error %g", n, e)
		}
	}
}

func TestInverseMatchesDFT(t *testing.T) {
	a := randComplex(32, 3)
	want := DFT(a, true)
	got := append([]complex128(nil), a...)
	Transform(core.Nop, got, true)
	if e := maxErr(got, want); e > 1e-9 {
		t.Errorf("inverse FFT vs DFT max error %g", e)
	}
}

func TestRoundtrip(t *testing.T) {
	for _, n := range []int{2, 16, 256, 1024} {
		a := randComplex(n, int64(n)+7)
		b := append([]complex128(nil), a...)
		Transform(core.Nop, b, false)
		Transform(core.Nop, b, true)
		if e := maxErr(a, b); e > 1e-9 {
			t.Errorf("n=%d: roundtrip max error %g", n, e)
		}
	}
}

func TestImpulseAndConstant(t *testing.T) {
	// Impulse transforms to all-ones.
	a := make([]complex128, 8)
	a[0] = 1
	Transform(core.Nop, a, false)
	for i, v := range a {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Errorf("impulse FFT[%d] = %v, want 1", i, v)
		}
	}
	// Constant transforms to a single spike of n at DC.
	b := []complex128{2, 2, 2, 2}
	Transform(core.Nop, b, false)
	if cmplx.Abs(b[0]-8) > 1e-12 {
		t.Errorf("DC bin = %v, want 8", b[0])
	}
	for i := 1; i < 4; i++ {
		if cmplx.Abs(b[i]) > 1e-12 {
			t.Errorf("bin %d = %v, want 0", i, b[i])
		}
	}
}

func TestParseval(t *testing.T) {
	a := randComplex(128, 5)
	var timeEnergy float64
	for _, v := range a {
		timeEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	Transform(core.Nop, a, false)
	var freqEnergy float64
	for _, v := range a {
		freqEnergy += real(v)*real(v) + imag(v)*imag(v)
	}
	if math.Abs(freqEnergy/float64(len(a))-timeEnergy) > 1e-9*timeEnergy {
		t.Errorf("Parseval violated: time %g vs freq/N %g", timeEnergy, freqEnergy/128)
	}
}

func TestLinearityQuick(t *testing.T) {
	f := func(seedA, seedB int16, ca, cb int8) bool {
		const n = 64
		a := randComplex(n, int64(seedA))
		b := randComplex(n, int64(seedB))
		alpha := complex(float64(ca), 0)
		beta := complex(float64(cb), 0)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = alpha*a[i] + beta*b[i]
		}
		Transform(core.Nop, a, false)
		Transform(core.Nop, b, false)
		Transform(core.Nop, sum, false)
		for i := range sum {
			if cmplx.Abs(sum[i]-(alpha*a[i]+beta*b[i])) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length 3 should panic")
		}
	}()
	Transform(core.Nop, make([]complex128, 3), false)
}

func TestEmptyTransform(t *testing.T) {
	Transform(core.Nop, nil, false) // must not panic
}

func TestTransformCharges(t *testing.T) {
	m := machine.IBMSP()
	tally := core.NewTally(m)
	Transform(tally, randComplex(1024, 1), false)
	want := 5.0 * 1024 * 10 * m.FlopTime
	if math.Abs(tally.Seconds-want) > 1e-12 {
		t.Errorf("charge %g, want %g", tally.Seconds, want)
	}
}

func fill2D(nx, ny int, seed int64) *array.Dense2D[complex128] {
	a := array.New2D[complex128](nx, ny)
	vals := randComplex(nx*ny, seed)
	copy(a.Data, vals)
	return a
}

func TestTwoDSeqRoundtrip(t *testing.T) {
	a := fill2D(16, 8, 2)
	orig := a.Clone()
	TwoDSeq(core.Nop, a, false)
	TwoDSeq(core.Nop, a, true)
	if e := maxErr(a.Data, orig.Data); e > 1e-9 {
		t.Errorf("2D roundtrip error %g", e)
	}
}

func TestTwoDV1ModesMatch(t *testing.T) {
	a := fill2D(16, 16, 3)
	b := a.Clone()
	TwoDV1(core.Sequential, a, false)
	TwoDV1(core.Concurrent, b, false)
	for k := range a.Data {
		if a.Data[k] != b.Data[k] {
			t.Fatal("V1 modes differ")
		}
	}
}

func TestTwoDV1MatchesSeq(t *testing.T) {
	a := fill2D(8, 32, 4)
	b := a.Clone()
	TwoDSeq(core.Nop, a, false)
	TwoDV1(core.Sequential, b, false)
	for k := range a.Data {
		if a.Data[k] != b.Data[k] {
			t.Fatal("V1 != sequential")
		}
	}
}

func TestTwoDSPMDMatchesV1(t *testing.T) {
	const nx, ny = 16, 16
	ref := fill2D(nx, ny, 5)
	TwoDV1(core.Sequential, ref, false)
	for _, n := range []int{1, 2, 4, 8} {
		src := fill2D(nx, ny, 5)
		var got *array.Dense2D[complex128]
		_, err := spmd.MustWorld(n, machine.IBMSP()).Run(func(p *spmd.Proc) {
			var full *array.Dense2D[complex128]
			if p.Rank() == 0 {
				full = src
			}
			g := meshspectral.ScatterGrid(p, full, 0, meshspectral.Rows(n), 0)
			out := TwoDSPMD(p, g, false)
			res := meshspectral.GatherGrid(out, 0)
			if p.Rank() == 0 {
				got = res
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k := range ref.Data {
			if got.Data[k] != ref.Data[k] {
				t.Fatalf("n=%d: SPMD differs from V1 at %d (not bit-identical)", n, k)
			}
		}
	}
}

func TestTwoDSPMDInverseRoundtrip(t *testing.T) {
	const nx, ny = 32, 32
	src := fill2D(nx, ny, 6)
	orig := src.Clone()
	var got *array.Dense2D[complex128]
	_, err := spmd.MustWorld(4, machine.IBMSP()).Run(func(p *spmd.Proc) {
		var full *array.Dense2D[complex128]
		if p.Rank() == 0 {
			full = src
		}
		g := meshspectral.ScatterGrid(p, full, 0, meshspectral.Rows(4), 0)
		fwd := TwoDSPMD(p, g, false)
		inv := TwoDSPMD(p, fwd, true)
		res := meshspectral.GatherGrid(inv, 0)
		if p.Rank() == 0 {
			got = res
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(got.Data, orig.Data); e > 1e-9 {
		t.Errorf("SPMD 2D roundtrip error %g", e)
	}
}

// TestStepTables: the precomputed twiddle steps are, bit for bit, what
// Transform used to evaluate per butterfly level per call, for every
// size an int length can reach (2^30 and beyond) and both directions.
func TestStepTables(t *testing.T) {
	for l := 1; l < len(stepFwd); l++ {
		size := 1 << l
		for _, dir := range []struct {
			sign  float64
			table *[len(stepFwd)]complex128
		}{{-1, &stepFwd}, {1, &stepInv}} {
			ang := dir.sign * 2 * math.Pi / float64(size)
			if got := dir.table[l]; real(got) != math.Cos(ang) || imag(got) != math.Sin(ang) {
				t.Errorf("size 2^%d sign %+g: table has %v, want (%v, %v)", l, dir.sign, got, math.Cos(ang), math.Sin(ang))
			}
		}
	}
}

// TestFillMatchesPerPointFormula pins the app's input field to the formula
// evaluated at every point, bit for bit, on row and column layouts and on
// ranks that own nothing.
func TestFillMatchesPerPointFormula(t *testing.T) {
	for _, tc := range []struct {
		n int
		l meshspectral.Layout
	}{{1, meshspectral.Rows(1)}, {3, meshspectral.Rows(3)}, {2, meshspectral.Cols(2)}, {8, meshspectral.Rows(8)}} {
		_, err := spmd.MustWorld(tc.n, machine.IBMSP()).Run(func(p *spmd.Proc) {
			g := meshspectral.New2D[complex128](p, 6, 20, tc.l, 0)
			fill(g)
			x0, x1 := g.OwnedX()
			y0, y1 := g.OwnedY()
			for i := x0; i < x1; i++ {
				for j := y0; j < y1; j++ {
					want := complex(math.Sin(float64(i)*0.11)+math.Cos(float64(j)*0.23), 0)
					if got := g.At(i, j); got != want {
						t.Errorf("%v rank %d: point (%d,%d) = %v, want %v", tc.l, p.Rank(), i, j, got, want)
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
