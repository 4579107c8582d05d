package sortapp

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/core"
)

// sortSink keeps BenchmarkMergeSort's result live.
var sortSink []int32

// BenchmarkMergeSort is the dev-loop view of mergesort's share of the
// bench's batch-compute workload: MergeSort of 2^21 random int32 (the P=1
// block) and of 2^20 (a rank's block at P=2), in ns per element per
// textbook pass.
func BenchmarkMergeSort(b *testing.B) {
	for _, n := range []int{1 << 21, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := RandomInts(n, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sortSink = MergeSort(core.Nop, a)
			}
			passes := bits.Len(uint(n - 1))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*passes), "ns/elem/pass")
		})
	}
}
