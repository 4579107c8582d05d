package fft

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/arch"
	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/machine"
)

// refTransform is Transform as it was before the plan and the level-wise
// kernels, kept as the oracle they must match bit for bit: a bit reversal
// through bits.Reverse per element, then per block a twiddle recurrence
// from w = 1.
func refTransform(m core.Meter, a []complex128, inverse bool) {
	n := len(a)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: length %d is not a power of two", n))
	}
	logn := bits.TrailingZeros(uint(n))
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

// flopsTap records every Flops charge, in order.
type flopsTap struct {
	core.Meter
	charges []float64
}

func (t *flopsTap) Flops(n float64) { t.charges = append(t.charges, n) }

func newTap() *flopsTap { return &flopsTap{Meter: core.Nop} }

// testInputs are three inputs of n scalars whose bits a reordered or
// skipped operation would show: random values with signed zeros and
// subnormals planted; signed zeros with a rare subnormal, where a skipped
// multiply by 1+0i flips a zero; random values with NaNs and infinities
// planted (which spread through a transform, hence the other two).
func testInputs(n int, seed int64) [][]complex128 {
	tiny := []float64{math.Copysign(0, -1), 0, 5e-324, -5e-324, 1e-310, -2.2250738585072e-308}
	huge := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(seed))
	pick := func(vals []float64, v float64, odds int) float64 {
		if rng.Intn(odds) == 0 {
			return vals[rng.Intn(len(vals))]
		}
		return v
	}
	mixed, zeros, nonFinite := randComplex(n, seed), make([]complex128, n), randComplex(n, seed+1)
	for i := range mixed {
		mixed[i] = complex(pick(tiny, real(mixed[i]), 4), pick(tiny, imag(mixed[i]), 4))
		zeros[i] = complex(pick(tiny, tiny[rng.Intn(2)], 16), pick(tiny, tiny[rng.Intn(2)], 16))
		nonFinite[i] = complex(pick(huge, real(nonFinite[i]), 8), pick(huge, imag(nonFinite[i]), 8))
	}
	return [][]complex128{mixed, zeros, nonFinite}
}

// sameBits reports the first scalar at which got and want differ in the
// bits of either part. A NaN part need only be NaN on both sides: which
// NaN an operation on two NaNs returns follows the operand order the
// register allocator chose (the parent's own kernel returns other NaN
// bits under -race), not the arithmetic.
func sameBits(got, want []complex128) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d scalars, want %d", len(got), len(want))
	}
	same := func(g, w float64) bool {
		return math.Float64bits(g) == math.Float64bits(w) || math.IsNaN(g) && math.IsNaN(w)
	}
	for k := range got {
		g, w := got[k], want[k]
		if !same(real(g), real(w)) || !same(imag(g), imag(w)) {
			return fmt.Errorf("scalar %d = %v, want %v", k, g, w)
		}
	}
	return nil
}

// refRows and refCols are the per-row and per-column loops the two
// kernels replace, over refTransform.
func refRows(m core.Meter, a []complex128, nx, ny int, inverse bool) {
	for i := 0; i < nx; i++ {
		refTransform(m, a[i*ny:(i+1)*ny], inverse)
	}
}

func refCols(m core.Meter, a []complex128, nx, ny int, inverse bool) {
	d := &array.Dense2D[complex128]{NX: nx, NY: ny, Data: a}
	col := make([]complex128, nx)
	for j := 0; j < ny; j++ {
		d.Col(j, col)
		refTransform(m, col, inverse)
		d.SetCol(j, col)
	}
}

// TestKernelsMatchParentBits: Transform, TransformRows and TransformCols
// produce the parent's Transform's output bits — infinities, signed zeros
// and subnormals included, NaN where it has NaN — and make its Flops calls
// with the same arguments in the same order, for every size 2^0…2^12,
// both directions and degenerate, odd and square shapes.
func TestKernelsMatchParentBits(t *testing.T) {
	type shape struct{ nx, ny int }
	var shapes []shape
	for logn := 0; logn <= 12; logn++ {
		n := 1 << logn
		shapes = append(shapes, shape{0, n}, shape{n, 0}, shape{1, n}, shape{n, 1})
	}
	shapes = append(shapes, shape{3, 8}, shape{32, 32}, shape{7, 64}, shape{512, 512})
	// Blocks of several rows, with an odd and an even log2 (a plain level
	// last or not), rows too short for a two-level sweep (2 points), and
	// blocks whose last rowsChunk is partial (33×32, 9×128, 5×256, 5×512).
	shapes = append(shapes, shape{7, 2}, shape{33, 32}, shape{9, 128}, shape{5, 256}, shape{5, 512})
	kernels := []struct {
		name      string
		got, want func(core.Meter, []complex128, int, int, bool)
	}{
		{"TransformRows", TransformRows, refRows},
		{"TransformCols", TransformCols, refCols},
		{"Transform", func(m core.Meter, a []complex128, nx, ny int, inv bool) {
			if nx == 1 {
				Transform(m, a, inv)
			}
		}, func(m core.Meter, a []complex128, nx, ny int, inv bool) {
			if nx == 1 {
				refTransform(m, a, inv)
			}
		}},
	}
	for _, s := range shapes {
		for _, inverse := range []bool{false, true} {
			for _, k := range kernels {
				nx, ny := s.nx, s.ny
				if k.name == "TransformCols" { // columns of length 2^k: 8×3, not 3×8
					nx, ny = ny, nx
				}
				for i, in := range testInputs(nx*ny, int64(nx*1000+ny)) {
					got, want := slices.Clone(in), slices.Clone(in)
					gm, wm := newTap(), newTap()
					k.got(gm, got, nx, ny, inverse)
					k.want(wm, want, nx, ny, inverse)
					if err := sameBits(got, want); err != nil {
						t.Fatalf("%s %d×%d inverse=%v input %d: %v", k.name, nx, ny, inverse, i, err)
					}
					if !slices.Equal(gm.charges, wm.charges) {
						t.Fatalf("%s %d×%d inverse=%v: Flops calls %v, want %v", k.name, nx, ny, inverse, gm.charges, wm.charges)
					}
				}
			}
		}
	}
}

// TestTwoDSeqMatchesParentBits: TwoDSeq over the two kernels is the
// parent's row loop then column loop, bits and charges (MemWords
// included) alike.
func TestTwoDSeqMatchesParentBits(t *testing.T) {
	for _, s := range [][2]int{{32, 32}, {8, 64}, {64, 2}} {
		for _, inverse := range []bool{false, true} {
			a := &array.Dense2D[complex128]{NX: s[0], NY: s[1], Data: testInputs(s[0]*s[1], 9)[0]}
			want := slices.Clone(a.Data)
			gm, wm := core.NewTally(machine.IBMSP()), core.NewTally(machine.IBMSP())
			TwoDSeq(gm, a, inverse)
			refRows(wm, want, s[0], s[1], inverse)
			refCols(wm, want, s[0], s[1], inverse)
			wm.MemWords(float64(4 * s[0] * s[1]))
			if err := sameBits(a.Data, want); err != nil {
				t.Fatalf("%dx%d inverse=%v: %v", s[0], s[1], inverse, err)
			}
			if math.Float64bits(gm.Seconds) != math.Float64bits(wm.Seconds) {
				t.Fatalf("%dx%d inverse=%v: charged %v s, want %v", s[0], s[1], inverse, gm.Seconds, wm.Seconds)
			}
		}
	}
}

// TestPlanTwiddles: every twiddle a plan holds is, bit for bit, the value
// the parent's per-block recurrence w *= steps[l] from w = 1 reached at
// that point of that level, for every cacheable size and both directions;
// and the swap pairs are exactly the bit reversal's.
func TestPlanTwiddles(t *testing.T) {
	for logn := 0; logn <= maxCachedLog; logn++ {
		n := 1 << logn
		p := planOf(logn)
		for _, dir := range []struct {
			tw    []complex128
			steps *[bits.UintSize - 1]complex128
		}{{p.fwd, &stepFwd}, {p.inv, &stepInv}} {
			if len(dir.tw) != n {
				t.Fatalf("2^%d: %d twiddles, want %d", logn, len(dir.tw), n)
			}
			for l, size := 1, 2; size <= n; l, size = l+1, size<<1 {
				w := complex(1, 0)
				for k := 0; k < size/2; k++ {
					if got := dir.tw[size/2+k]; math.Float64bits(real(got)) != math.Float64bits(real(w)) ||
						math.Float64bits(imag(got)) != math.Float64bits(imag(w)) {
						t.Fatalf("2^%d level %d k %d: twiddle %v, want %v", logn, l, k, got, w)
					}
					w *= dir.steps[l]
				}
			}
		}
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for _, s := range p.swaps {
			i, j := s[0], s[1]
			if i >= j {
				t.Fatalf("2^%d: swap pair (%d, %d) not ascending", logn, i, j)
			}
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, j := range perm {
			if want := int(bits.Reverse(uint(i)) >> (bits.UintSize - logn)); j != want {
				t.Fatalf("2^%d: position %d holds %d after the swaps, want %d", logn, i, j, want)
			}
		}
	}
}

// TestKernelShapePanics: a shape the kernels cannot transform fails with
// a panic naming the kernel, nx, ny and len(a) — not with a bare index
// out of range somewhere inside.
func TestKernelShapePanics(t *testing.T) {
	kernels := map[string]func(core.Meter, []complex128, int, int, bool){
		"TransformRows": TransformRows,
		"TransformCols": TransformCols,
	}
	cases := []struct {
		kernel string
		n      int // len(a)
		nx, ny int
		want   string
	}{
		{"TransformRows", 31, 4, 8, "want len(a) = nx·ny"},
		{"TransformCols", 33, 4, 8, "want len(a) = nx·ny"},
		{"TransformRows", 0, -2, 0, "negative dimension"},
		{"TransformCols", 0, 0, -8, "negative dimension"},
		{"TransformRows", 8, -2, -4, "negative dimension"},
		{"TransformRows", 24, 8, 3, "length 3 is not a power of two"},
		{"TransformCols", 24, 3, 8, "length 3 is not a power of two"},
		{"TransformRows", 0, 0, 6, "length 6 is not a power of two"},
	}
	for _, c := range cases {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				head := fmt.Sprintf("fft: %s of %d×%d (len(a) = %d)", c.kernel, c.nx, c.ny, c.n)
				if !strings.HasPrefix(msg, head) || !strings.Contains(msg, c.want) {
					t.Errorf("%s %d×%d over %d: panic %q, want %q … %q", c.kernel, c.nx, c.ny, c.n, msg, head, c.want)
				}
			}()
			kernels[c.kernel](core.Nop, make([]complex128, c.n), c.nx, c.ny, false)
		}()
	}
}

// TestLongPlanNotCached: a transform longer than 2^16 points builds its
// plan per call and leaves no plan behind, and still matches the parent.
func TestLongPlanNotCached(t *testing.T) {
	const logn = maxCachedLog + 1
	in := randComplex(1<<logn, 17)
	got, want := slices.Clone(in), slices.Clone(in)
	Transform(core.Nop, got, false)
	refTransform(core.Nop, want, false)
	if err := sameBits(got, want); err != nil {
		t.Fatal(err)
	}
	if p := plans[logn].Load(); p != nil {
		t.Fatalf("plans[%d] cached after a 2^%d transform", logn, logn)
	}
}

// TestFreshPlanConcurrent: goroutines that all transform a size whose plan
// is not built yet, through Transform, TransformRows and TransformCols at
// once, agree bit for bit with the parent (run under -race), at a length
// whose rows share a rowsChunk block (2^8) and at one whose rows do not.
func TestFreshPlanConcurrent(t *testing.T) {
	const workers = 9
	kernels := []struct {
		got, want func(core.Meter, []complex128, int, int, bool)
		cols      bool // the transforms run down columns: the array is n×3, not 3×n
	}{
		{func(m core.Meter, a []complex128, _, ny int, inv bool) { Transform(m, a[:ny], inv) },
			func(m core.Meter, a []complex128, _, ny int, inv bool) { refTransform(m, a[:ny], inv) }, false},
		{TransformRows, refRows, false},
		{TransformCols, refCols, true},
	}
	for _, logn := range []int{8, 14} {
		n := 1 << logn
		dims := func(cols bool) (int, int) {
			if cols {
				return n, 3
			}
			return 3, n
		}
		plans[logn].Store(nil)
		in := testInputs(3*n, int64(logn))[0]
		outs := make([][]complex128, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range outs {
			outs[g] = slices.Clone(in)
			k := kernels[g%len(kernels)]
			nx, ny := dims(k.cols)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				k.got(core.Nop, outs[g], nx, ny, false)
			}()
		}
		close(start)
		wg.Wait()
		for g, out := range outs {
			k := kernels[g%len(kernels)]
			nx, ny := dims(k.cols)
			want := slices.Clone(in)
			k.want(core.Nop, want, nx, ny, false)
			if err := sameBits(out, want); err != nil {
				t.Errorf("2^%d goroutine %d: %v", logn, g, err)
			}
		}
		if plans[logn].Load() == nil {
			t.Errorf("plans[%d] not cached", logn)
		}
	}
}

// TestKernelsDoNotAllocate: neither kernel allocates, in either
// direction, on streamfft's rowfft batch (128×32), one frame (32×32) and
// batch-compute's grid (512×512).
func TestKernelsDoNotAllocate(t *testing.T) {
	for _, s := range [][2]int{{128, 32}, {32, 32}, {512, 512}} {
		a := randComplex(s[0]*s[1], 1)
		for _, inverse := range []bool{false, true} {
			for name, kernel := range map[string]func(core.Meter, []complex128, int, int, bool){
				"TransformRows": TransformRows, "TransformCols": TransformCols,
			} {
				if n := testing.AllocsPerRun(5, func() { kernel(core.Nop, a, s[0], s[1], inverse) }); n != 0 {
					t.Errorf("%s %d×%d inverse=%v: %v allocations per run", name, s[0], s[1], inverse, n)
				}
			}
		}
	}
}

var sink []complex128

// BenchmarkTransform is one forward transform of a row of 32 (streamfft's
// frame edge) and of 512 (batch-compute's fft@512) points.
func BenchmarkTransform(b *testing.B) {
	for _, n := range []int{32, 512} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			a := randComplex(n, 1)
			b.ReportAllocs()
			for b.Loop() {
				Transform(core.Nop, a, false)
			}
			sink = a
		})
	}
}

// BenchmarkTwoDSeq is one forward 2D transform of a 32² streamfft frame
// and of the 512² grid behind the bench's fft.twod_512_ms.
func BenchmarkTwoDSeq(b *testing.B) {
	for _, n := range []int{32, 512} {
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			a := fill2D(n, n, 1)
			b.ReportAllocs()
			for b.Loop() {
				TwoDSeq(core.Nop, a, false)
			}
			sink = a.Data
		})
	}
}

// BenchmarkTransformRows and BenchmarkTransformCols are each kernel on
// its own, forward: on 128×32, a batch of four streamfft frames as the
// rowfft stage takes it (colfft takes one 32×32 frame at a time), and on
// the 512² grid of batch-compute's fft@512.
func BenchmarkTransformRows(b *testing.B) { benchKernel(b, TransformRows) }

func BenchmarkTransformCols(b *testing.B) { benchKernel(b, TransformCols) }

func benchKernel(b *testing.B, kernel func(core.Meter, []complex128, int, int, bool)) {
	for _, s := range [][2]int{{128, 32}, {512, 512}} {
		b.Run(fmt.Sprintf("%dx%d", s[0], s[1]), func(b *testing.B) {
			a := randComplex(s[0]*s[1], 1)
			b.ReportAllocs()
			for b.Loop() {
				kernel(core.Nop, a, s[0], s[1], false)
			}
			sink = a
		})
	}
}

// BenchmarkTwoDSPMD is batch-compute's fft share: Program() at 512 — a
// forward and an inverse TwoDSPMD of a 512² grid, distributed by rows,
// and the round-trip check — on the real backend at P=1 and P=2.
func BenchmarkTwoDSPMD(b *testing.B) {
	onReal, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := arch.Run(context.Background(), Program(), 512, arch.WithBackend(onReal), arch.WithProcs(procs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
