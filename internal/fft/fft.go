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
	"sync/atomic"

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
	TransformRows(m, a, 1, len(a), inverse)
}

// rowsChunk is how many scalars of rows TransformRows takes through all
// its levels at once: 16 KiB stays in L1 (EXPERIMENTS.md has the sweep).
const rowsChunk = 1024

// TransformRows transforms in place each of the nx rows of the row-major
// nx×ny array a, with a row-by-row Transform's butterflies, twiddles, so
// output bits, and Flops charges (one per row, in order). Blocks of whole
// rows go through two levels per sweep (one plain level last if log2 ny is
// odd), k-major: for each twiddle index, every block of every row, after
// each row's bit-reversal swaps.
func TransformRows(m core.Meter, a []complex128, nx, ny int, inverse bool) {
	p, tw, logn := planFor("TransformRows", a, nx, ny, ny, inverse)
	if p == nil {
		return
	}
	chunk := max(1, rowsChunk/ny) * ny
	for lo := 0; lo < len(a); lo += chunk {
		b := a[lo:min(lo+chunk, len(a))]
		for row := 0; row < len(b); row += ny {
			r := b[row : row+ny]
			for _, s := range p.swaps {
				r[s[0]], r[s[1]] = r[s[1]], r[s[0]]
			}
		}
		half := 1
		for ; 4*half <= ny; half <<= 2 {
			for k := range half {
				w1, w2, w3 := tw[half+k], tw[2*half+k], tw[3*half+k]
				x0 := b[k : len(b)-3*half]
				x1, x2, x3 := b[k+half:][:len(x0)], b[k+2*half:][:len(x0)], b[k+3*half:][:len(x0)]
				for s := 0; s < len(x0); s += 4 * half {
					x0[s], x1[s], x2[s], x3[s] = radix4(x0[s], x1[s], x2[s], x3[s], w1, w2, w3)
				}
			}
		}
		for k, w := range tw[half:ny] { // the plain level, if log2 ny is odd
			for s := k; s < len(b); s += ny {
				u, v := b[s], b[s+half]*w
				b[s], b[s+half] = u+v, u-v
			}
		}
		scale(b, ny, inverse)
	}
	charge(m, nx, ny, logn)
}

// radix4 is the butterflies of levels half and 2·half at twiddle index k
// on four values half apart: (x0, x1) and (x2, x3) with w1 = tw[half+k],
// then (x0, x2) with w2 = tw[2·half+k] and (x1, x3) with w3 = tw[3·half+k].
func radix4(x0, x1, x2, x3, w1, w2, w3 complex128) (complex128, complex128, complex128, complex128) {
	v := x1 * w1
	x0, x1 = x0+v, x0-v
	v = x3 * w1
	x2, x3 = x2+v, x2-v
	v = x2 * w2
	x0, x2 = x0+v, x0-v
	v = x3 * w3
	x1, x3 = x1+v, x1-v
	return x0, x1, x2, x3
}

// TransformCols transforms in place each of the ny columns of the
// row-major nx×ny array a, bit for bit and charge for charge as Transform
// of each column copied out and back would, but copying nothing: the bit
// reversal swaps whole rows, and each sweep of two levels (and one plain
// level last when log2 nx is odd) spans four or two whole rows.
func TransformCols(m core.Meter, a []complex128, nx, ny int, inverse bool) {
	p, tw, logn := planFor("TransformCols", a, nx, ny, nx, inverse)
	if p == nil {
		return
	}
	for _, s := range p.swaps {
		x, y := a[int(s[0])*ny:][:ny], a[int(s[1])*ny:][:ny]
		for c := range x {
			x[c], y[c] = y[c], x[c]
		}
	}
	half := 1
	for ; 4*half <= nx; half <<= 2 {
		for start := 0; start < nx; start += 4 * half {
			for k := range half {
				w1, w2, w3 := tw[half+k], tw[2*half+k], tw[3*half+k]
				x0 := a[(start+k)*ny:][:ny]
				x1, x2, x3 := a[(start+k+half)*ny:][:len(x0)], a[(start+k+2*half)*ny:][:len(x0)], a[(start+k+3*half)*ny:][:len(x0)]
				for c := range x0 {
					x0[c], x1[c], x2[c], x3[c] = radix4(x0[c], x1[c], x2[c], x3[c], w1, w2, w3)
				}
			}
		}
	}
	for k, w := range tw[half:nx] { // the plain level, if log2 nx is odd
		x, y := a[k*ny:][:ny], a[(k+half)*ny:][:ny]
		for c := range x {
			u, v := x[c], y[c]*w
			x[c], y[c] = u+v, u-v
		}
	}
	scale(a, nx, inverse)
	charge(m, ny, nx, logn)
}

// planFor checks that a is an nx×ny array whose transforms have length
// n, and returns n's plan, its twiddles for the direction and log2(n),
// or a nil plan when there is nothing to transform.
func planFor(kernel string, a []complex128, nx, ny, n int, inverse bool) (*plan, []complex128, int) {
	switch {
	case nx < 0 || ny < 0:
		panic(fmt.Sprintf("fft: %s of %d×%d (len(a) = %d): negative dimension", kernel, nx, ny, len(a)))
	case len(a) != nx*ny:
		panic(fmt.Sprintf("fft: %s of %d×%d (len(a) = %d): want len(a) = nx·ny", kernel, nx, ny, len(a)))
	case n&(n-1) != 0:
		panic(fmt.Sprintf("fft: %s of %d×%d (len(a) = %d): length %d is not a power of two", kernel, nx, ny, len(a), n))
	case len(a) == 0:
		return nil, nil, 0
	}
	logn := bits.TrailingZeros(uint(n))
	p := planOf(logn)
	if inverse {
		return p, p.inv, logn
	}
	return p, p.fwd, logn
}

// scale applies the inverse transform's 1/n to every scalar of a.
func scale(a []complex128, n int, inverse bool) {
	if inverse {
		inv := complex(1/float64(n), 0)
		for i := range a {
			a[i] *= inv
		}
	}
}

// charge makes the count Flops charges that count length-n transforms
// make one by one: a single summed charge would round differently on a
// virtual clock.
func charge(m core.Meter, count, n, logn int) {
	for range count {
		m.Flops(5 * float64(n) * float64(logn))
	}
}

// A plan is what every transform of one length n = 2^logn shares: the
// bit-reversal permutation as (i, j) swap pairs with i < j, and each
// direction's twiddles, those of butterfly level half at [half, 2·half)
// (int32 indices: no row of 2^31 complex128s fits in memory).
type plan struct {
	swaps    [][2]int32
	fwd, inv []complex128
}

// maxCachedLog bounds the plans kept, to 2^16 points: a plan costs about
// 2.3× its input (≈ 2.4 MB for the largest) and archserve accepts any fft
// size. A longer transform builds its plan per call, O(n) beside its
// O(n log n).
const maxCachedLog = 16

var plans [bits.UintSize]atomic.Pointer[plan]

// planOf returns the plan of length 2^logn. Goroutines that race to
// build one build the same bits, so whichever store lands is right.
func planOf(logn int) *plan {
	if logn > maxCachedLog {
		return newPlan(logn)
	}
	p := plans[logn].Load()
	if p == nil {
		p = newPlan(logn)
		plans[logn].Store(p)
	}
	return p
}

func newPlan(logn int) *plan {
	n := 1 << logn
	p := &plan{swaps: make([][2]int32, 0, n/2), fwd: twiddles(n, &stepFwd), inv: twiddles(n, &stepInv)}
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logn)); j > i {
			p.swaps = append(p.swaps, [2]int32{int32(i), int32(j)})
		}
	}
	return p
}

// twiddles tabulates one direction's twiddles for length n by the
// recurrence w *= steps[l] from w = 1 that the butterfly loop once ran
// per block, so every entry is bit-equal to what that loop multiplied by.
func twiddles(n int, steps *[bits.UintSize - 1]complex128) []complex128 {
	t := make([]complex128, n)
	for l, half := 1, 1; half < n; l, half = l+1, half<<1 {
		w := complex(1, 0)
		for k := half; k < 2*half; k++ {
			t[k] = w
			w *= steps[l]
		}
	}
	return t
}

// stepFwd[l] and stepInv[l] are the twiddle steps of butterfly size 2^l,
// e^{-2πi/2^l} forward and e^{+2πi/2^l} inverse, computed once for every
// size: the recurrence that builds each plan's twiddles multiplies by
// them, and an uncached plan is built per call.
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
	TransformRows(m, a.Data, a.NX, a.NY, inverse)
	TransformCols(m, a.Data, a.NX, a.NY, inverse)
	m.MemWords(float64(4 * a.NX * a.NY)) // the model's column copy traffic (complex = 2 words)
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
// this process's section of the grid distributed by rows (halo 0); the
// transform happens in place through redistribution: the row kernel on
// the owned row block, redistribute to columns, the column kernel on the
// owned column block, redistribute back to the original distribution.
// The returned grid holds the transformed data distributed by rows.
func TwoDSPMD(p spmd.Comm, rows *meshspectral.Grid2D[complex128], inverse bool) *meshspectral.Grid2D[complex128] {
	rows.RowOp(func(a []complex128, nx, ny int) { TransformRows(p, a, nx, ny, inverse) })
	cols := rows.Redistribute(meshspectral.Cols(p.N()))
	cols.ColOp(func(a []complex128, nx, ny int) { TransformCols(p, a, nx, ny, inverse) })
	return cols.Redistribute(meshspectral.Rows(p.N()))
}
