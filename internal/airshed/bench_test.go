package airshed

import (
	"context"
	"testing"

	"repro/arch"
)

// BenchmarkAirshedSPMD is the distributed program's sweep cost: airshed@48
// (a 48×48 basin, 100 steps) at P=1 on the real backend, in ns per grid
// point per step. BenchmarkAirshedSeqStep times the sequential kernels;
// this one times the grid phases that every rank runs.
func BenchmarkAirshedSPMD(b *testing.B) {
	const n, steps = 48, 100
	real, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	pm := DefaultParams(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.Run(context.Background(), Program(steps), pm, arch.WithBackend(real), arch.WithProcs(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*n*n), "ns/point")
}
