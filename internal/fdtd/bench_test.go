package fdtd

import (
	"testing"

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
