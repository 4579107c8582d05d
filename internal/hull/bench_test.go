package hull

import (
	"testing"

	"repro/internal/core"
)

// hullSink keeps BenchmarkMonotoneChain's result live.
var hullSink Pts

// BenchmarkMonotoneChain is the kernel under hull's profile: Andrew's
// monotone chain over the app's default 50,000 points, which every rank
// runs on its block and the app reruns on all points as its oracle, with
// its allocations.
func BenchmarkMonotoneChain(b *testing.B) {
	pts := RandomPoints(50000, 4, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hullSink = MonotoneChain(core.Nop, pts)
	}
}
