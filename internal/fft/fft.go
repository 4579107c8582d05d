// Package fft implements the two-dimensional discrete Fourier transform
// of §3.5: a 1D radix-2 FFT applied to every row, a redistribution from
// rows to columns, the 1D FFT applied to every column, and a final
// redistribution restoring the original distribution (Figures 10 and 11).
//
// Both program versions of the paper's method are provided: TwoDV1 is the
// initial forall-based version (Figure 10), executable sequentially, and
// TwoDSPMD is the SPMD message-passing version (Figure 11) built on the
// mesh-spectral archetype. They produce bit-identical results because the
// per-row/per-column arithmetic is identical and redistribution moves data
// without arithmetic.
package fft

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// Transform performs an in-place radix-2 decimation-in-time FFT of a,
// whose length must be a power of two (or zero). With inverse set, the
// inverse transform is computed including the 1/n scaling. The standard
// ~5·n·log2(n) floating-point operations are charged to m.
func Transform(m core.Meter, a []complex128, inverse bool) {
	n := len(a)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	logn := bits.TrailingZeros(uint(n))

	// Bit-reversal permutation.
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logn))
		if j > i {
			a[i], a[j] = a[j], a[i]
		}
	}

	steps := &stepFwd
	if inverse {
		steps = &stepInv
	}
	for l, size := 1, 2; size <= n; l, size = l+1, size<<1 {
		half := size >> 1
		wstep := steps[l]
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				u := a[start+k]
				v := a[start+k+half] * w
				a[start+k] = u + v
				a[start+k+half] = u - v
				w *= wstep
			}
		}
	}
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
	m.Flops(5 * float64(n) * float64(logn))
}

// stepFwd[l] and stepInv[l] are the twiddle steps of butterfly size 2^l,
// e^{-2πi/2^l} forward and e^{+2πi/2^l} inverse, computed once: per
// Transform call they would be log2(n) cos/sin pairs, as dear as the
// ~800 flops of a 32-point transform.
var stepFwd, stepInv = stepTable(-1), stepTable(1)

// stepTable evaluates e^{sign·2πi/2^l} for every butterfly size an int
// length can reach.
func stepTable(sign float64) (t [bits.UintSize - 1]complex128) {
	for l := 1; l < len(t); l++ {
		ang := sign * 2 * math.Pi / float64(int(1)<<l)
		t[l] = complex(math.Cos(ang), math.Sin(ang))
	}
	return t
}

// DFT computes the discrete Fourier transform directly in O(n²) — the
// testing oracle for Transform.
func DFT(a []complex128, inverse bool) []complex128 {
	n := len(a)
	out := make([]complex128, n)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := sign * 2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += a[t] * complex(math.Cos(ang), math.Sin(ang))
		}
		if inverse {
			sum /= complex(float64(n), 0)
		}
		out[k] = sum
	}
	return out
}

// TwoDSeq performs the 2D transform of a dense array sequentially (row
// FFTs then column FFTs) — the original sequential algorithm of §3.5.1.
func TwoDSeq(m core.Meter, a *array.Dense2D[complex128], inverse bool) {
	for i := 0; i < a.NX; i++ {
		Transform(m, a.Row(i), inverse)
	}
	col := make([]complex128, a.NX)
	for j := 0; j < a.NY; j++ {
		a.Col(j, col)
		Transform(m, col, inverse)
		a.SetCol(j, col)
	}
	m.MemWords(float64(4 * a.NX * a.NY)) // column copy traffic (complex = 2 words)
}

// TwoDV1 is the initial archetype-based version (Figure 10): a forall
// over row FFTs followed by a forall over column FFTs. mode selects
// sequential (debugging) or concurrent execution with identical results.
func TwoDV1(mode core.Mode, a *array.Dense2D[complex128], inverse bool) {
	core.ParFor(mode, a.NX, func(i int) {
		Transform(core.Nop, a.Row(i), inverse)
	})
	core.ParFor(mode, a.NY, func(j int) {
		col := a.Col(j, nil)
		Transform(core.Nop, col, inverse)
		a.SetCol(j, col)
	})
}

// TwoDSPMD is the SPMD version (Figure 11) as process p's body. rows is
// this process's section of the grid distributed by rows; the transform
// happens in place through redistribution: row FFTs, redistribute to
// columns, column FFTs, redistribute back to the original distribution.
// The returned grid holds the transformed data distributed by rows.
func TwoDSPMD(p spmd.Comm, rows *meshspectral.Grid2D[complex128], inverse bool) *meshspectral.Grid2D[complex128] {
	rows.RowOp(func(gi int, row []complex128) {
		Transform(p, row, inverse)
	})
	cols := rows.Redistribute(meshspectral.Cols(p.N()))
	cols.ColOp(func(gj int, col []complex128) {
		Transform(p, col, inverse)
	})
	return cols.Redistribute(meshspectral.Rows(p.N()))
}
