package sortapp

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/core"
)

// sortSink keeps the benchmarks' results live.
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

// BenchmarkKWayMerge is the P=2 final merge of the one-deep mergesort at
// 2^21: two sorted lists of 2^20 random int32, in ns per output element.
func BenchmarkKWayMerge(b *testing.B) {
	const n = 1 << 20
	lists := [][]int32{MergeSort(core.Nop, RandomInts(n, 1)), MergeSort(core.Nop, RandomInts(n, 2))}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sortSink = KWayMerge(core.Nop, lists)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*n), "ns/elem")
}

// BenchmarkQuickSort is the kernel under quicksort's profile: the one-deep
// quicksort's Solve (copy the block, then QuickSort it) on the app's
// default 2^19 random int32, the P=1 block, with its allocations.
func BenchmarkQuickSort(b *testing.B) {
	a := RandomInts(1<<19, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]int32, len(a))
		copy(out, a)
		QuickSort(core.Nop, out)
		sortSink = out
	}
}
