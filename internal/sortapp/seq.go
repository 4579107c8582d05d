// Package sortapp implements the paper's sorting applications: the
// one-deep mergesort developed in §2.5 (Figures 4 and 5), the one-deep
// quicksort of §2.6.2 (non-trivial split, degenerate merge), and the
// traditional recursive parallel mergesort (Figure 1) that Figure 6 uses
// as the baseline.
//
// The sequential algorithms here really sort; their virtual cost is the
// count of comparisons and element moves the algorithm performs on the
// given input, charged to a core.Meter, so the simulated times respond to
// real algorithmic behaviour (e.g. presorted inputs are cheaper). For
// MergeSort that is the textbook bottom-up formulation's count, although
// the host sorts blocks of 16 with a merge network that performs other
// comparisons.
package sortapp

import (
	"math/bits"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/core"
)

// scratchPool recycles merge scratch buffers across MergeSort calls. The
// scratch never escapes a call, so pooling only trades allocator+zeroing
// work for a Get/Put pair — a measurable win when a 16-process world
// sorts 16 blocks per run.
var scratchPool sync.Pool

func getScratch(n int) []int32 {
	if v := scratchPool.Get(); v != nil {
		if s := v.(*[]int32); cap(*s) >= n {
			return (*s)[:n]
		}
	}
	return make([]int32, n)
}

func putScratch(s []int32) {
	scratchPool.Put(&s)
}

// MergeSort sorts a into a new slice using bottom-up mergesort — the
// paper's sequential mergesort — charging the comparisons and element
// moves of the textbook formulation to m. The input is not modified.
//
// The charged costs are exactly the textbook's: one comparison per element
// emitted while both runs of a merge are live, and one move per element
// per pass, for the passes of width 1, 2, 4, … below len(a). Only the host
// algorithm differs, below width 16: each aligned block of 16 elements is
// sorted by sort16, a merge network that yields the same sorted runs and
// counts the textbook's comparisons without performing its merges. A
// partial last block (all of a when it is shorter than 16) takes the
// textbook's narrow passes, and the passes from width 16 up are the
// textbook's.
func MergeSort(m core.Meter, a []int32) []int32 {
	n := len(a)
	out := make([]int32, n)
	if n < 2 {
		copy(out, a)
		return out
	}
	buf := getScratch(n)
	defer putScratch(buf)
	passes := bits.Len(uint(n - 1)) // widths 1, 2, 4, … below n
	// The narrow stage writes where the passes from width 16 up must start
	// for the last of them to write out.
	src, dst := out, buf
	if passes > 4 && passes%2 == 1 {
		src, dst = buf, out
	}
	full := n &^ 15
	var cmps int64
	for lo := 0; lo < full; lo += 16 {
		cmps += sort16((*[16]int32)(src[lo:lo+16]), (*[16]int32)(a[lo:lo+16]))
	}
	// The partial block's narrow passes alternate between its two ranges,
	// the first one chosen so that the last writes into src.
	x, y := src[full:], dst[full:]
	if min(passes, 4)%2 == 0 {
		x, y = y, x
	}
	cmps += mergePass(x, a[full:], 1)
	for width := 2; width < min(16, n); width *= 2 {
		cmps += mergePass(y, x, width)
		x, y = y, x
	}
	for width := 16; width < n; width *= 2 {
		cmps += mergePass(dst, src, width)
		src, dst = dst, src
	}
	m.Cmps(float64(cmps))
	m.MemWords(float64(int64(n)*int64(passes)) / 2) // int32: two elements per word
	return out
}

// mergePass is one textbook pass: it merges each pair of adjacent runs of
// the given width in src into dst (len(dst) == len(src)) and returns the
// comparisons performed. Adjacent merges within a pass are independent, so
// running two at once overlaps their serial compare→advance→load chains —
// the comparisons performed (and charged) are exactly those of merging
// each pair alone.
func mergePass(dst, src []int32, width int) int64 {
	n := len(src)
	step := 2 * width
	var cmps int64
	lo := 0
	for ; lo+step < n; lo += 2 * step {
		hi1 := lo + step
		lo2 := lo + step
		mid2 := min(lo2+width, n)
		hi2 := min(lo2+step, n)
		cmps += mergePairInto(
			dst[lo:hi1], src[lo:lo+width], src[lo+width:hi1],
			dst[lo2:hi2], src[lo2:mid2], src[mid2:hi2])
	}
	for ; lo < n; lo += step {
		mid := min(lo+width, n)
		hi := min(lo+step, n)
		cmps += mergeInto(dst[lo:hi], src[lo:mid], src[mid:hi])
	}
	return cmps
}

// sort16 sorts src into dst with Batcher's odd–even merge sort network,
// unrolled and branch-free, and returns the comparisons the textbook's
// width-1, 2, 4 and 8 passes perform on those 16 elements. The network is
// itself a merge sort: its stages leave sorted runs of 2, 4, 8 and 16, the
// textbook's runs. A textbook merge of sorted runs A and B compares until
// one run is used up, |A|+|B| − tail times, where the tail is what is left
// of the other run: the b ≥ max A if max A ≤ max B, else the a > max B.
// Both counts are zero in the other case, and max A and max B always
// count once between them, so before each stage the tail of every merge
// is 1 plus the ge and gt terms of the other elements.
func sort16(dst, src *[16]int32) int64 {
	v0, v1, v2, v3, v4, v5, v6, v7 := src[0], src[1], src[2], src[3], src[4], src[5], src[6], src[7]
	v8, v9, v10, v11, v12, v13, v14, v15 := src[8], src[9], src[10], src[11], src[12], src[13], src[14], src[15]
	// Width 1: each pair costs one comparison.
	v0, v1, v2, v3, v4, v5, v6, v7 = min(v0, v1), max(v0, v1), min(v2, v3), max(v2, v3), min(v4, v5), max(v4, v5), min(v6, v7), max(v6, v7)
	v8, v9, v10, v11, v12, v13, v14, v15 = min(v8, v9), max(v8, v9), min(v10, v11), max(v10, v11), min(v12, v13), max(v12, v13), min(v14, v15), max(v14, v15)
	// Width 2: four merges of 2 + 2.
	tail := ge(v2, v1) + gt(v0, v3) + ge(v6, v5) + gt(v4, v7) + ge(v10, v9) + gt(v8, v11) + ge(v14, v13) + gt(v12, v15)
	v0, v2, v1, v3, v4, v6, v5, v7 = min(v0, v2), max(v0, v2), min(v1, v3), max(v1, v3), min(v4, v6), max(v4, v6), min(v5, v7), max(v5, v7)
	v8, v10, v9, v11, v12, v14, v13, v15 = min(v8, v10), max(v8, v10), min(v9, v11), max(v9, v11), min(v12, v14), max(v12, v14), min(v13, v15), max(v13, v15)
	v1, v2, v5, v6, v9, v10, v13, v14 = min(v1, v2), max(v1, v2), min(v5, v6), max(v5, v6), min(v9, v10), max(v9, v10), min(v13, v14), max(v13, v14)
	// Width 4: two merges of 4 + 4.
	tail += ge(v4, v3) + ge(v5, v3) + ge(v6, v3) + gt(v0, v7) + gt(v1, v7) + gt(v2, v7) +
		ge(v12, v11) + ge(v13, v11) + ge(v14, v11) + gt(v8, v15) + gt(v9, v15) + gt(v10, v15)
	v0, v4, v1, v5, v2, v6, v3, v7 = min(v0, v4), max(v0, v4), min(v1, v5), max(v1, v5), min(v2, v6), max(v2, v6), min(v3, v7), max(v3, v7)
	v8, v12, v9, v13, v10, v14, v11, v15 = min(v8, v12), max(v8, v12), min(v9, v13), max(v9, v13), min(v10, v14), max(v10, v14), min(v11, v15), max(v11, v15)
	v2, v4, v3, v5, v10, v12, v11, v13 = min(v2, v4), max(v2, v4), min(v3, v5), max(v3, v5), min(v10, v12), max(v10, v12), min(v11, v13), max(v11, v13)
	v1, v2, v3, v4, v5, v6, v9, v10 = min(v1, v2), max(v1, v2), min(v3, v4), max(v3, v4), min(v5, v6), max(v5, v6), min(v9, v10), max(v9, v10)
	v11, v12, v13, v14 = min(v11, v12), max(v11, v12), min(v13, v14), max(v13, v14)
	// Width 8: one merge of 8 + 8.
	tail += ge(v8, v7) + ge(v9, v7) + ge(v10, v7) + ge(v11, v7) + ge(v12, v7) + ge(v13, v7) + ge(v14, v7) +
		gt(v0, v15) + gt(v1, v15) + gt(v2, v15) + gt(v3, v15) + gt(v4, v15) + gt(v5, v15) + gt(v6, v15)
	v0, v8, v1, v9, v2, v10, v3, v11 = min(v0, v8), max(v0, v8), min(v1, v9), max(v1, v9), min(v2, v10), max(v2, v10), min(v3, v11), max(v3, v11)
	v4, v12, v5, v13, v6, v14, v7, v15 = min(v4, v12), max(v4, v12), min(v5, v13), max(v5, v13), min(v6, v14), max(v6, v14), min(v7, v15), max(v7, v15)
	v4, v8, v5, v9, v6, v10, v7, v11 = min(v4, v8), max(v4, v8), min(v5, v9), max(v5, v9), min(v6, v10), max(v6, v10), min(v7, v11), max(v7, v11)
	v2, v4, v3, v5, v6, v8, v7, v9 = min(v2, v4), max(v2, v4), min(v3, v5), max(v3, v5), min(v6, v8), max(v6, v8), min(v7, v9), max(v7, v9)
	v10, v12, v11, v13 = min(v10, v12), max(v10, v12), min(v11, v13), max(v11, v13)
	v1, v2, v3, v4, v5, v6, v7, v8 = min(v1, v2), max(v1, v2), min(v3, v4), max(v3, v4), min(v5, v6), max(v5, v6), min(v7, v8), max(v7, v8)
	v9, v10, v11, v12, v13, v14 = min(v9, v10), max(v9, v10), min(v11, v12), max(v11, v12), min(v13, v14), max(v13, v14)
	*dst = [16]int32{v0, v1, v2, v3, v4, v5, v6, v7, v8, v9, v10, v11, v12, v13, v14, v15}
	// 8 pair comparisons, then 16 per stage less its tails (4 + 2 + 1 ones).
	return 8 + 3*16 - 7 - tail
}

// ge and gt are b ≥ m and a > m as 0 or 1, computed without a branch;
// the int64 difference cannot overflow for any int32 operands.
func ge(b, m int32) int64 { return 1 + (int64(b)-int64(m))>>63 }
func gt(a, m int32) int64 { return int64(uint64(int64(m)-int64(a)) >> 63) }

// mergeInto merges sorted runs a and b into dst (len(dst) == len(a)+len(b))
// and returns the number of comparisons performed.
//
// The merge loop is written branchlessly: on random data the taken side
// of a conditional merge is unpredictable, so the classic if/else form
// spends most of its time in branch mispredictions. Selecting the smaller
// head and advancing the cursors with conditional moves keeps the charged
// comparison count identical (one comparison per emitted element while
// both runs are live, exactly as before — the count is the loop trip
// count, recovered as i+j on exit) while roughly halving the host cost.
func mergeInto(dst, a, b []int32) int64 {
	return mergeResume(dst, a, b, 0, 0, 0)
}

// mergeResume runs the merge from cursor state (i into a, j into b, k into
// dst) to completion and returns the total comparisons for the whole
// merge (i+j when one run exhausts — each both-live iteration costs
// exactly one comparison, wherever it was executed). Chunking by
// min(remaining, remaining) lets the inner loop run with a single counter
// because neither cursor can leave its run within the chunk.
func mergeResume(dst, a, b []int32, i, j, k int) int64 {
	for {
		m := min(len(a)-i, len(b)-j)
		if m == 0 {
			break
		}
		for t := 0; t < m; t++ {
			av, bv := a[i], b[j]
			v := av
			if bv < av {
				v = bv
			}
			adv := 0
			if bv < av {
				adv = 1
			}
			dst[k] = v
			k++
			j += adv
			i += 1 - adv
		}
	}
	cmps := int64(i + j)
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
	return cmps
}

// mergePairInto merges (a1,b1)→d1 and (a2,b2)→d2 — two independent merges
// — in one interleaved loop. A lone merge is latency-bound on its
// compare→advance→load chain; interleaving two lets the chains overlap.
// The comparison count (and the merged output) is exactly the sum of the
// two merges run alone.
func mergePairInto(d1, a1, b1, d2, a2, b2 []int32) int64 {
	i1, j1, k1 := 0, 0, 0
	i2, j2, k2 := 0, 0, 0
	for {
		m := min(min(len(a1)-i1, len(b1)-j1), min(len(a2)-i2, len(b2)-j2))
		if m == 0 {
			break
		}
		for t := 0; t < m; t++ {
			av1, bv1 := a1[i1], b1[j1]
			av2, bv2 := a2[i2], b2[j2]
			v1 := av1
			if bv1 < av1 {
				v1 = bv1
			}
			v2 := av2
			if bv2 < av2 {
				v2 = bv2
			}
			adv1 := 0
			if bv1 < av1 {
				adv1 = 1
			}
			adv2 := 0
			if bv2 < av2 {
				adv2 = 1
			}
			d1[k1] = v1
			d2[k2] = v2
			k1++
			k2++
			j1 += adv1
			i1 += 1 - adv1
			j2 += adv2
			i2 += 1 - adv2
		}
	}
	return mergeResume(d1, a1, b1, i1, j1, k1) + mergeResume(d2, a2, b2, i2, j2, k2)
}

// Merge merges two sorted slices into a new sorted slice, charging m.
func Merge(m core.Meter, a, b []int32) []int32 {
	dst := make([]int32, len(a)+len(b))
	cmps := mergeInto(dst, a, b)
	m.Cmps(float64(cmps))
	m.MemWords(float64(len(dst)) / 2)
	return dst
}

// QuickSort sorts a in place using median-of-three quicksort with an
// insertion-sort tail for small ranges, charging the work performed to m.
func QuickSort(m core.Meter, a []int32) {
	var cmps int64
	quicksort(a, &cmps)
	m.Cmps(float64(cmps))
}

const insertionCutoff = 16

func quicksort(a []int32, cmps *int64) {
	for len(a) > insertionCutoff {
		p := partition(a, cmps)
		// Recurse into the smaller half to bound stack depth.
		if p < len(a)-p-1 {
			quicksort(a[:p], cmps)
			a = a[p+1:]
		} else {
			quicksort(a[p+1:], cmps)
			a = a[:p]
		}
	}
	insertionSort(a, cmps)
}

func insertionSort(a []int32, cmps *int64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 {
			*cmps++
			if a[j] <= v {
				break
			}
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// partition uses the median of first, middle and last elements as pivot
// and returns the pivot's final index.
func partition(a []int32, cmps *int64) int {
	hi := len(a) - 1
	mid := hi / 2
	*cmps += 3
	if a[mid] < a[0] {
		a[mid], a[0] = a[0], a[mid]
	}
	if a[hi] < a[0] {
		a[hi], a[0] = a[0], a[hi]
	}
	if a[hi] < a[mid] {
		a[hi], a[mid] = a[mid], a[hi]
	}
	pivot := a[mid]
	a[mid], a[hi-1] = a[hi-1], a[mid]
	i := 0
	for j := 0; j < hi-1; j++ {
		*cmps++
		if a[j] < pivot {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

// KWayMerge merges k sorted lists into one sorted slice through a
// balanced tree of two-way merges: ⌈log2 k⌉ levels, each a pass of
// independent branchless pair merges. It charges exactly the comparisons
// it performs — at most one per element per level, i.e. ~log2(k) per
// output element — and one element move per level, the honest cost of
// the tree. (The previous binary-heap formulation probed both children at
// every sift step, charging ~2·log2(k) comparisons per element, and its
// data-dependent probe chain resisted the hardware; the tree halves the
// charged comparisons and merges several times faster on the host.)
// Output order is identical to the heap's: the merge is stable, with
// ties broken by list index.
func KWayMerge(m core.Meter, lists [][]int32) []int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, total)
	var cmps, moves int64
	if len(lists) <= 1 {
		// The merge degenerates to a copy.
		if len(lists) == 1 {
			copy(out, lists[0])
		}
		m.Cmps(0)
		m.MemWords(float64(total) / 2)
		return out
	}
	cur := make([][]int32, len(lists))
	copy(cur, lists)
	// Two scratch arenas alternate between levels; the final level merges
	// straight into out. Every list occupies the subrange of an arena
	// matching its global element range (offsets are cumulative lengths
	// and element order never changes), so a level's writes — which cover
	// exactly the element ranges of the lists it merges — can never
	// clobber a list carried over from an earlier level: the carry is
	// always the trailing list, disjoint from every merged range. When an
	// arena-resident carry is finally merged as the second operand of a
	// pair, its storage tail-aligns with the destination range; a forward
	// merge is safe in that layout because each iteration reads both run
	// heads before it stores, and the store index never passes the unread
	// second-run cursor.
	var arenas [2][]int32
	ai := 0
	for len(cur) > 1 {
		var dst []int32
		if len(cur) <= 2 {
			dst = out
		} else {
			if arenas[ai] == nil {
				arenas[ai] = getScratch(total)
			}
			dst = arenas[ai]
			ai ^= 1
		}
		next := make([][]int32, 0, (len(cur)+1)/2)
		off := 0
		p := 0
		// Adjacent pair merges are independent: run them two at a time so
		// their latency chains overlap, exactly as MergeSort's passes do.
		for ; p+3 < len(cur); p += 4 {
			a1, b1 := cur[p], cur[p+1]
			a2, b2 := cur[p+2], cur[p+3]
			n1, n2 := len(a1)+len(b1), len(a2)+len(b2)
			d1 := dst[off : off+n1]
			d2 := dst[off+n1 : off+n1+n2]
			cmps += mergePairInto(d1, a1, b1, d2, a2, b2)
			next = append(next, d1, d2)
			off += n1 + n2
		}
		for ; p+1 < len(cur); p += 2 {
			a, b := cur[p], cur[p+1]
			n := len(a) + len(b)
			d := dst[off : off+n]
			cmps += mergeInto(d, a, b)
			next = append(next, d)
			off += n
		}
		moves += int64(off)
		if p < len(cur) {
			next = append(next, cur[p])
		}
		cur = next
	}
	for i := range arenas {
		if arenas[i] != nil {
			putScratch(arenas[i])
		}
	}
	m.Cmps(float64(cmps))
	m.MemWords(float64(moves) / 2)
	return out
}

// Concat concatenates parts into a new slice, charging copy cost.
func Concat(m core.Meter, parts [][]int32) []int32 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]int32, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	m.MemWords(float64(total) / 2)
	return out
}

// IsSorted reports whether a is in ascending order.
func IsSorted(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			return false
		}
	}
	return true
}

// IsGloballySorted reports whether the rank-order concatenation of parts
// is sorted: each part sorted, and part boundaries in order.
func IsGloballySorted(parts [][]int32) bool {
	var last int32
	have := false
	for _, p := range parts {
		if !IsSorted(p) {
			return false
		}
		if len(p) == 0 {
			continue
		}
		if have && p[0] < last {
			return false
		}
		last = p[len(p)-1]
		have = true
	}
	return true
}

// RandomInts returns n pseudo-random int32 values from the given seed
// (deterministic across runs).
func RandomInts(n int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Uint32())
	}
	return out
}

// BlockDistribute splits data into n contiguous blocks as evenly as
// possible (the paper's assumed initial distribution).
func BlockDistribute(data []int32, n int) [][]int32 {
	parts := make([][]int32, n)
	for i := 0; i < n; i++ {
		lo := i * len(data) / n
		hi := (i + 1) * len(data) / n
		parts[i] = data[lo:hi]
	}
	return parts
}

// searchGreater returns the first index in sorted a whose value exceeds s.
func searchGreater(a []int32, s int32) int {
	return sort.Search(len(a), func(i int) bool { return a[i] > s })
}
