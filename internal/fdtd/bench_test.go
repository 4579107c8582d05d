package fdtd

import (
	"context"
	"testing"

	"repro/arch"
	"repro/internal/core"
)

// BenchmarkFDTDSeqStep is the kernel under fdtd's profile: one sequential
// Yee step at the app's default size (a 32³ cavity), whose curl row
// kernels are the ones every rank runs on its slab, with its allocations.
func BenchmarkFDTDSeqStep(b *testing.B) {
	s := NewSeq(DefaultParams(32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(core.Nop)
	}
}

// BenchmarkFDTDSPMD is the distributed program's sweep cost: fdtd@32 (a
// 32³ cavity, 50 steps, then the energy scan) at P=1 on the real backend,
// in ns per grid point per step.
func BenchmarkFDTDSPMD(b *testing.B) {
	const n, steps = 32, 50
	real, err := arch.ResolveBackend("real")
	if err != nil {
		b.Fatal(err)
	}
	pm := DefaultParams(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := arch.Run(context.Background(), Program(steps), pm, arch.WithBackend(real), arch.WithProcs(1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*steps*n*n*n), "ns/point")
}
