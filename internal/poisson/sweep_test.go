package poisson

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// jacobiRowFloatMax is jacobiRow as it was before the fold moved to bit
// patterns: the builtin float max over math.Abs. It is the oracle for the
// kernel's result, nothing else calls it.
func jacobiRowFloatMax(out, up, mid, down, f []float64, h2 float64) float64 {
	d := 0.0
	for j := range out {
		v := (up[j] + down[j] + mid[j] + mid[j+2] - h2*f[j]) * 0.25
		out[j] = v
		d = max(d, math.Abs(v-mid[j+1]))
	}
	return d
}

// TestJacobiRowMatchesFloatMax holds the bit-pattern fold to the float max
// it replaced: the row written and the maximum returned are equal bit for
// bit, a NaN maximum being any NaN. The table puts each special value where
// it decides the fold — as the difference itself, as the running maximum it
// meets, first, last and alone — and the random rows mix them at every
// length from 0 to 40.
func TestJacobiRowMatchesFloatMax(t *testing.T) {
	nan, inf, sub := math.NaN(), math.Inf(1), math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)
	payloadNaN := math.Float64frombits(0xfff8_0000_dead_beef) // negative, non-default payload
	compare := func(name string, up, mid, down, f []float64, h2 float64) {
		t.Helper()
		n := len(up)
		got, want := make([]float64, n), make([]float64, n)
		dGot := jacobiRow(got, up, mid, down, f, h2)
		dWant := jacobiRowFloatMax(want, up, mid, down, f, h2)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: out[%d] = %x, want %x", name, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
		if math.IsNaN(dWant) != math.IsNaN(dGot) || !math.IsNaN(dWant) && math.Float64bits(dGot) != math.Float64bits(dWant) {
			t.Fatalf("%s: max = %v (%x), want %v (%x)", name, dGot, math.Float64bits(dGot), dWant, math.Float64bits(dWant))
		}
	}

	// row makes new − old at point j exactly diffs[j]: up = 4·diffs and
	// everything else zero.
	row := func(name string, diffs ...float64) {
		t.Helper()
		n := len(diffs)
		up, mid, zero := make([]float64, n), make([]float64, n+2), make([]float64, n)
		for j, d := range diffs {
			up[j] = 4 * d
		}
		compare(name, up, mid, zero, zero, 1)
	}
	row("empty")
	row("one", 0.5)
	row("one negative", -0.5)
	row("one zero", 0)
	row("one -0", negZero)
	row("only -0", negZero, negZero, negZero)
	row("-0 after +0", 0, negZero)
	row("subnormal beats zero", 0, sub, negZero)
	row("negative subnormal", -sub, 0)
	row("subnormals ordered", sub, 3*sub, 2*sub)
	row("odd length", 1, -3, 2)
	row("+Inf", 1, inf, 2)
	row("-Inf", 1, math.Inf(-1), 2)
	row("Inf last", 1, 2, inf)
	row("NaN first", nan, 1, 2)
	row("NaN last", 1, 2, nan)
	row("NaN alone", nan)
	row("NaN beats +Inf", inf, nan, inf)
	row("+Inf after NaN", nan, inf)
	row("negative NaN with payload", 1, payloadNaN, inf)
	row("max finite", math.MaxFloat64/4, -math.MaxFloat64/4)

	// Inf − Inf: the difference is NaN though neither operand is.
	compare("Inf minus Inf", []float64{inf}, []float64{0, inf, 0}, []float64{0}, []float64{0}, 1)

	special := []float64{0, negZero, sub, -sub, inf, math.Inf(-1), nan, payloadNaN, math.MaxFloat64, 1e-300, -1e300}
	rng := rand.New(rand.NewSource(21))
	draw := func(n int, specials float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			if rng.Float64() < specials {
				xs[i] = special[rng.Intn(len(special))]
			} else {
				xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		return xs
	}
	for trial := 0; trial < 2000; trial++ {
		n := trial % 41
		specials := []float64{0, 0.02, 0.3}[trial%3]
		compare(fmt.Sprintf("random trial %d (n=%d)", trial, n),
			draw(n, specials), draw(n+2, specials), draw(n, specials), draw(n, specials), rng.Float64())
	}
}

// TestNaNSurfacesAsDiffMax pins why the row kernel's fold must let NaN
// win: a NaN anywhere in the field must end the solve with DiffMax = NaN. A
// bare `if d > max` would skip it and report the solve as converged.
func TestNaNSurfacesAsDiffMax(t *testing.T) {
	pr := Manufactured(9, 9, 1e-6, 100)
	f := pr.F
	pr.F = func(x, y float64) float64 {
		if x == 0.5 && y == 0.5 {
			return math.NaN()
		}
		return f(x, y)
	}
	check := func(name string, r Result) {
		t.Helper()
		if !math.IsNaN(r.DiffMax) {
			t.Errorf("%s: DiffMax = %g after %d iterations, want NaN", name, r.DiffMax, r.Iterations)
		}
	}
	_, r := SolveSeq(core.Nop, pr)
	check("SolveSeq", r)
	_, r = SolveV1(core.Concurrent, pr)
	check("SolveV1", r)
	var rs [4]Result
	if _, err := core.Simulate(len(rs), machine.IBMSP(), func(p *spmd.Proc) {
		_, rs[p.Rank()] = SolveSPMD(p, pr, meshspectral.Blocks(2, 2))
	}); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		check("SolveSPMD", r)
	}
}

// BenchmarkJacobiSweep is the dev-loop view of the bench's batch-comm:
// poisson@41 on the real backend at P=1 (part A) and P=2 (part B), in ns
// per grid point per iteration (at P=1 the bench's poisson.ns_per_point).
func BenchmarkJacobiSweep(b *testing.B) {
	const n = 41
	real, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	pr := Manufactured(n, n, 1e-7, 20000)
	for _, procs := range []int{1, 2} {
		b.Run(fmt.Sprintf("P=%d", procs), func(b *testing.B) {
			points := 0
			for i := 0; i < b.N; i++ {
				out, _, err := arch.Run(context.Background(), Program(), pr, arch.WithBackend(real), arch.WithProcs(procs))
				if err != nil {
					b.Fatal(err)
				}
				points += out.Iters * n * n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
		})
	}
}
