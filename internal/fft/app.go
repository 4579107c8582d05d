package fft

import (
	"context"
	"fmt"
	"math"

	"repro/arch"
	"repro/internal/collective"
	"repro/internal/meshspectral"
)

func init() {
	arch.Register(arch.App{
		Name:        "fft",
		Desc:        "2D FFT on the mesh-spectral archetype (§3.5)",
		DefaultSize: 256,
		Run:         runApp,
	})
}

// Program runs a forward+inverse 2D FFT of an n×n grid on the
// mesh-spectral archetype and returns the maximum roundtrip error,
// all-reduced so every rank knows it.
func Program() arch.Program[int, float64] {
	return arch.SPMDRoot(func(p *arch.Proc, n int) float64 {
		g := meshspectral.New2D[complex128](p, n, n, meshspectral.Rows(p.N()), 0)
		fill(g)
		orig := g.LocalDense()
		f := TwoDSPMD(p, g, false)
		inv := TwoDSPMD(p, f, true)
		back := inv.LocalDense()
		local := 0.0
		for k := range back.Data {
			d := back.Data[k] - orig.Data[k]
			local = math.Max(local, math.Hypot(real(d), imag(d)))
		}
		return collective.AllReduce(p, local, math.Max)
	})
}

// fill sets point (i, j) of g to sin(0.11·i) + cos(0.23·j). One sine per
// owned row and one cosine per owned column, summed per point, are the
// same bits as both evaluated at every point.
func fill(g *meshspectral.Grid2D[complex128]) {
	x0, x1 := g.OwnedX()
	y0, y1 := g.OwnedY()
	sin, cos := make([]float64, x1-x0), make([]float64, y1-y0)
	for i := range sin {
		sin[i] = math.Sin(float64(x0+i) * 0.11)
	}
	for j := range cos {
		cos[j] = math.Cos(float64(y0+j) * 0.23)
	}
	g.Fill(func(i, j int) complex128 { return complex(sin[i-x0]+cos[j-y0], 0) })
}

func runApp(ctx context.Context, s arch.Settings) (string, arch.Report, error) {
	n := s.Size
	if n&(n-1) != 0 {
		return "", arch.Report{}, fmt.Errorf("fft: size must be a power of two, got %d", n)
	}
	errMax, rep, err := arch.RunWith(ctx, Program(), s, n)
	if err != nil {
		return "", rep, err
	}
	if errMax > 1e-9 {
		return "", rep, fmt.Errorf("fft: roundtrip error %g", errMax)
	}
	return fmt.Sprintf("2D FFT %dx%d forward+inverse (roundtrip error %.1e)", n, n, errMax), rep, nil
}
