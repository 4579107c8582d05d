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
// the host sorts blocks of 16 with a merge network and cuts large lone
// merges in two, which perform other comparisons.
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

func getScratch(n int) *[]int32 {
	if v := scratchPool.Get(); v != nil {
		s := v.(*[]int32)
		if cap(*s) >= n {
			*s = (*s)[:n]
			return s
		}
		*s = make([]int32, n) // keep the larger buffer in the pool
		return s
	}
	s := make([]int32, n)
	return &s
}

// MergeSort sorts a into a new slice using bottom-up mergesort — the
// paper's sequential mergesort — charging the comparisons and element
// moves of the textbook formulation to m. The input is not modified.
//
// The charged costs are exactly the textbook's: one comparison per element
// emitted while both runs of a merge are live, and one move per element
// per pass, for the passes of width 1, 2, 4, … below len(a). Only the host
// algorithm differs. Below width 16, each aligned block of 16 elements is
// sorted by sort16, a merge network that yields the same sorted runs and
// counts the textbook's comparisons without performing its merges. A
// partial last block (all of a when it is shorter than 16) takes the
// textbook's narrow passes. The passes from width 16 up make the
// textbook's merges, except that mergeLone cuts a pass's large odd merge
// in two and counts its comparisons instead.
func MergeSort(m core.Meter, a []int32) []int32 {
	n := len(a)
	out := make([]int32, n)
	if n < 2 {
		copy(out, a)
		return out
	}
	scratch := getScratch(n)
	defer scratchPool.Put(scratch)
	buf := *scratch
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
// mergePair runs them two at a time; the odd merge left at the end of a
// pass, which is the whole of a sort's top pass, runs through mergeLone.
func mergePass(dst, src []int32, width int) int64 {
	n := len(src)
	step := 2 * width
	var cmps int64
	lo := 0
	for ; lo+step < n; lo += 2 * step {
		mid1, lo2 := lo+width, lo+step
		mid2, hi2 := min(lo2+width, n), min(lo2+step, n)
		cmps += int64(mergePair(dst, src, lo, mid1, mid1, lo2, mid1, lo2, mid2, mid2, hi2, mid2))
	}
	if lo < n {
		cmps += mergeLone(dst, src, lo, min(lo+width, n), n)
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

// splitMin is the smallest lone merge, in outputs, that mergeLone runs as
// two halves. A pass has at most one lone merge, so the smaller ones are
// a small share of a sort, and the cut's two binary searches are kept
// to merges large enough that they are a small share of the merge.
const splitMin = 4096

// mergeLone merges the adjacent sorted runs src[lo:mid] and src[mid:hi]
// into dst[lo:hi] and returns the textbook merge's comparisons. A lone
// merge is latency-bound on its compare→advance→load chain, so from
// splitMin outputs up it is cut at its output midpoint and the two halves
// run as one interleaved pair. The cut is the stable co-rank: the first h
// outputs are src[lo:lo+c] and src[mid:mid+h−c] for the c found by binary
// search, ties going to the left run as the textbook's merge sends them.
// The halves' loop trips are not the whole merge's comparisons, so the
// count is sort16's rule instead: |A|+|B| − tail, where the tail is the
// b ≥ max A if max A ≤ max B, else the a > max B.
func mergeLone(dst, src []int32, lo, mid, hi int) int64 {
	if hi-lo < splitMin || mid == lo || mid == hi {
		return int64(mergeRest(dst, src, lo, mid, mid, hi, mid) - lo - mid)
	}
	h := (hi - lo) / 2
	c0, c1 := max(0, h-(hi-mid)), min(h, mid-lo)
	for c0 < c1 {
		c := int(uint(c0+c1) >> 1)
		if src[lo+c] <= src[mid+h-c-1] {
			c0 = c + 1
		} else {
			c1 = c
		}
	}
	ia, jb := lo+c0, mid+h-c0
	mergePair(dst, src, lo, ia, mid, jb, mid, ia, mid, jb, hi, mid)
	var tail int
	if maxA, maxB := src[mid-1], src[hi-1]; maxA <= maxB {
		tail = hi - mid - sort.Search(hi-mid, func(k int) bool { return src[mid+k] >= maxA })
	} else {
		tail = mid - lo - sort.Search(mid-lo, func(k int) bool { return src[lo+k] > maxB })
	}
	return int64(hi - lo - tail)
}

// mergePair runs two independent merges of src into dst in one loop. Each
// merge is given by absolute cursors, i over its left run [i, e) and j
// over its right run [j, f), and writes its output to dst[i+j−mid]: for a
// whole merge mid is where its right run starts, and for either half of a
// merge cut by mergeLone it is the whole merge's. A lone merge is
// latency-bound on its compare→advance→load chain; interleaving two lets
// the chains overlap. With one source, one destination and no per-merge
// output counters, the loop's cursors stay in registers. It returns the
// two merges' loop trips: each trip while both of a merge's runs are live
// is one comparison.
func mergePair(dst, src []int32, i1, e1, j1, f1, mid1, i2, e2, j2, f2, mid2 int) int {
	start := i1 + j1 + i2 + j2
	i1, j1, i2, j2 = mergeBoth(dst, src, i1, e1, j1, f1, mid1, i2, e2, j2, f2, mid2)
	return mergeRest(dst, src, i1, e1, j1, f1, mid1) + mergeRest(dst, src, i2, e2, j2, f2, mid2) - start
}

// mergeBoth is mergePair's loop, which runs until one of the four runs is
// used up and returns the four cursors. It calls nothing, so nothing
// outside the loop's own state competes for its registers. Each merge
// takes its step as one comparison whose flag both selects the output
// and advances a cursor, so neither head is needed after the select.
func mergeBoth(dst, src []int32, i1, e1, j1, f1, mid1, i2, e2, j2, f2, mid2 int) (int, int, int, int) {
	dst = dst[:len(src)] // one length bounds every index
	for {
		// Neither cursor of either merge can leave its run within t trips,
		// so the inner loop runs on one counter.
		t := min(e1-i1, f1-j1, e2-i2, f2-j2)
		if t <= 0 {
			return i1, j1, i2, j2
		}
		for ; t > 0; t-- {
			v1, b1 := src[i1], src[j1]
			c1 := 0
			if b1 < v1 {
				c1 = 1
			}
			if c1 != 0 {
				v1 = b1
			}
			dst[i1+j1-mid1] = v1
			i1 += 1 - c1
			j1 += c1
			v2, b2 := src[i2], src[j2]
			c2 := 0
			if b2 < v2 {
				c2 = 1
			}
			if c2 != 0 {
				v2 = b2
			}
			dst[i2+j2-mid2] = v2
			i2 += 1 - c2
			j2 += c2
		}
	}
}

// mergeRest runs one merge, with mergePair's cursors, to its end and
// returns i+j at the moment one of its runs is used up. The loop is
// branchless: on random data the taken side of a conditional merge is
// unpredictable, so the classic if/else form spends most of its time in
// branch mispredictions, while selecting the smaller head and advancing
// the cursors with conditional moves performs the same comparisons.
func mergeRest(dst, src []int32, i, e, j, f, mid int) int {
	for {
		t := min(e-i, f-j)
		if t <= 0 {
			break
		}
		for ; t > 0; t-- {
			v, b := src[i], src[j]
			c := 0
			if b < v {
				c = 1
			}
			if c != 0 {
				v = b
			}
			dst[i+j-mid] = v
			i += 1 - c
			j += c
		}
	}
	k := i + j - mid
	k += copy(dst[k:], src[i:e])
	copy(dst[k:], src[j:f])
	return i + j
}

// Merge merges two sorted slices into a new sorted slice, charging m. It
// is KWayMerge of the two.
func Merge(m core.Meter, a, b []int32) []int32 {
	return KWayMerge(m, [][]int32{a, b})
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
// the tree's textbook merges perform — at most one per element per level,
// i.e. ~log2(k) per output element — and one element move per merged
// element per level, the honest cost of the tree. Ties are broken by list
// index. One list is handed back as it is, but charged as the copy the
// degenerate merge is.
//
// The host copies the lists side by side into one buffer first, so that
// each level is a pass like MergeSort's over one source and one
// destination: adjacent runs merge two at a time through mergePair, an odd
// merge through mergeLone, and a trailing list with no partner is carried
// over uncharged. The buffer is chosen so that the last level writes out.
func KWayMerge(m core.Meter, lists [][]int32) []int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if len(lists) <= 1 {
		m.Cmps(0)
		m.MemWords(float64(total) / 2)
		if len(lists) == 1 {
			return lists[0]
		}
		return []int32{}
	}
	out := make([]int32, total)
	scratch := getScratch(total)
	defer scratchPool.Put(scratch)
	buf := *scratch
	src, dst := out, buf
	if bits.Len(uint(len(lists)-1))%2 == 1 {
		src, dst = buf, out
	}
	// runs holds the k+1 boundaries of the k sorted runs in src.
	runs := make([]int, 0, len(lists)+1)
	off := 0
	for _, l := range lists {
		runs = append(runs, off)
		off += copy(src[off:], l)
	}
	runs = append(runs, off)
	var cmps, moves int64
	for len(runs) > 2 {
		k := len(runs) - 1 // runs at this level
		p := 0
		for ; p+3 < k; p += 4 {
			cmps += int64(mergePair(dst, src, runs[p], runs[p+1], runs[p+1], runs[p+2], runs[p+1],
				runs[p+2], runs[p+3], runs[p+3], runs[p+4], runs[p+3]))
		}
		if p+1 < k {
			cmps += mergeLone(dst, src, runs[p], runs[p+1], runs[p+2])
			p += 2
		}
		moves += int64(runs[p])
		if p < k {
			copy(dst[runs[p]:], src[runs[p]:runs[k]])
		}
		// The merged pairs' outer boundaries are the next level's runs.
		next := runs[:0]
		for q := 0; q < k; q += 2 {
			next = append(next, runs[q])
		}
		runs = append(next, runs[k])
		src, dst = dst, src
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
