package skyline

import (
	"testing"

	"repro/internal/core"
)

// skylineSink keeps BenchmarkSkylineCompute's result live.
var skylineSink Skyline

// BenchmarkSkylineCompute is the kernel under skyline's profile: the
// sequential divide and conquer over the app's default 2,000 buildings,
// which every rank runs on its block and the app reruns on all buildings
// as its oracle, with its allocations.
func BenchmarkSkylineCompute(b *testing.B) {
	bs := RandomBuildings(2000, 3, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		skylineSink = Compute(core.Nop, bs)
	}
}
