package swirl

import (
	"context"
	"testing"

	"repro/arch"
)

// BenchmarkSwirlSPMD is the distributed program's step cost: swirl@128
// (129 rings × 128 axial stations, 50 steps) at P=1 on the real backend,
// in ns per grid point per step. BenchmarkSwirlSeqStep times the
// sequential kernels; this one times the row, column and grid operations
// and the redistributions that every rank runs.
func BenchmarkSwirlSPMD(b *testing.B) {
	const n, steps = 128, 50
	real, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	pm := DefaultParams(n+1, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.Run(context.Background(), Program(steps), pm, arch.WithBackend(real), arch.WithProcs(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*(n+1)*n), "ns/point")
}
