package closest

import (
	"testing"

	"repro/internal/core"
)

// pairSink keeps BenchmarkClosestDivideAndConquer's result live.
var pairSink Pair

// BenchmarkClosestDivideAndConquer is the kernel under closest's profile:
// the sequential divide and conquer over the app's default 50,000 points,
// which every rank runs on its block and the app reruns on all points as
// its oracle, with its allocations.
func BenchmarkClosestDivideAndConquer(b *testing.B) {
	pts := RandomPoints(50000, 5, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pairSink = DivideAndConquer(core.Nop, pts)
	}
}
