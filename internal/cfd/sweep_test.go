package cfd

import (
	"context"
	"testing"

	"repro/arch"
)

// BenchmarkLFSweep is the dev-loop view of cfd's share of the bench's
// batch-compute part A: cfd@128 (a 128×64 grid, 100 steps) at P=1 on the
// real backend, in ns per grid point per step.
func BenchmarkLFSweep(b *testing.B) {
	const n, steps = 128, 100
	real, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	pm := DefaultParams(n, n/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.Run(context.Background(), Program(steps), pm, arch.WithBackend(real), arch.WithProcs(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*n*(n/2)), "ns/point")
}
