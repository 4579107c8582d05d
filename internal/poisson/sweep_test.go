package poisson

import (
	"context"
	"math"
	"testing"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// TestNaNSurfacesAsDiffMax pins why the row kernel folds with the builtin
// max: a NaN anywhere in the field must end the solve with DiffMax = NaN. A
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

// BenchmarkJacobiSweep is the dev-loop view of the bench's batch-comm part
// A: poisson@41 at P=1 on the real backend, in ns per grid point per
// iteration (the bench's poisson.ns_per_point).
func BenchmarkJacobiSweep(b *testing.B) {
	const n = 41
	real, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	pr := Manufactured(n, n, 1e-7, 20000)
	points := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _, err := arch.Run(context.Background(), Program(), pr, arch.WithBackend(real), arch.WithProcs(1))
		if err != nil {
			b.Fatal(err)
		}
		points += out.Iters * n * n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(points), "ns/point")
}
