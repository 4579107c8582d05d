package sortapp

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
)

func sortedCopy(a []int32) []int32 {
	out := make([]int32, len(a))
	copy(out, a)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var awkwardInputs = [][]int32{
	nil,
	{},
	{5},
	{2, 1},
	{1, 2},
	{3, 3, 3, 3},
	{5, 4, 3, 2, 1},
	{1, 2, 3, 4, 5},
	{0, -1, 1, -2, 2},
	RandomInts(1000, 7),
	RandomInts(1023, 8), // non-power-of-two
	RandomInts(1024, 9),
}

func TestMergeSortMatchesStdlib(t *testing.T) {
	for i, in := range awkwardInputs {
		orig := make([]int32, len(in))
		copy(orig, in)
		got := MergeSort(core.Nop, in)
		if !reflect.DeepEqual(got, sortedCopy(orig)) {
			t.Errorf("case %d: MergeSort wrong", i)
		}
		if len(in) > 0 && !reflect.DeepEqual(in, orig) {
			t.Errorf("case %d: MergeSort mutated its input", i)
		}
	}
}

func TestQuickSortMatchesStdlib(t *testing.T) {
	for i, in := range awkwardInputs {
		a := make([]int32, len(in))
		copy(a, in)
		QuickSort(core.Nop, a)
		if !reflect.DeepEqual(a, sortedCopy(in)) {
			t.Errorf("case %d: QuickSort wrong", i)
		}
	}
}

func TestSortPropertyQuick(t *testing.T) {
	f := func(a []int32) bool {
		want := sortedCopy(a)
		ms := MergeSort(core.Nop, a)
		qs := make([]int32, len(a))
		copy(qs, a)
		QuickSort(core.Nop, qs)
		return reflect.DeepEqual(ms, want) && reflect.DeepEqual(qs, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortChargesNLogN(t *testing.T) {
	m := machine.IBMSP()
	n := 1 << 14
	tally := core.NewTally(m)
	MergeSort(tally, RandomInts(n, 3))
	// Comparisons should be within [n/2 log n, n log n] roughly; the
	// charge should therefore be within a factor of a few of
	// n log2 n CmpTime.
	ideal := float64(n) * 14 * m.CmpTime
	if tally.Seconds < ideal/4 || tally.Seconds > 4*ideal {
		t.Errorf("mergesort charge %g not within 4x of n log n estimate %g", tally.Seconds, ideal)
	}
}

func TestMergeSortCheaperOnPresorted(t *testing.T) {
	m := machine.IBMSP()
	n := 1 << 14
	random := RandomInts(n, 3)
	presorted := sortedCopy(random)
	tr, tp := core.NewTally(m), core.NewTally(m)
	MergeSort(tr, random)
	MergeSort(tp, presorted)
	if tp.Seconds >= tr.Seconds {
		t.Errorf("presorted input should charge fewer comparisons: %g vs %g", tp.Seconds, tr.Seconds)
	}
}

func TestMerge(t *testing.T) {
	a := []int32{1, 3, 5}
	b := []int32{2, 3, 4, 6}
	got := Merge(core.Nop, a, b)
	want := []int32{1, 2, 3, 3, 4, 5, 6}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Merge = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(Merge(core.Nop, nil, b), b) {
		t.Error("Merge with empty left failed")
	}
	if !reflect.DeepEqual(Merge(core.Nop, a, nil), a) {
		t.Error("Merge with empty right failed")
	}
}

func TestKWayMerge(t *testing.T) {
	cases := [][][]int32{
		{},
		{{1, 2, 3}},
		{{1, 4}, {2, 5}, {3, 6}},
		{{}, {1}, {}, {0, 2}},
		{{5, 5, 5}, {5, 5}},
	}
	for i, lists := range cases {
		var all []int32
		for _, l := range lists {
			all = append(all, l...)
		}
		got := KWayMerge(core.Nop, lists)
		if !reflect.DeepEqual(got, sortedCopy(all)) {
			t.Errorf("case %d: KWayMerge = %v", i, got)
		}
	}
}

func TestKWayMergePropertyQuick(t *testing.T) {
	f := func(raw [][]int32) bool {
		lists := make([][]int32, len(raw))
		var all []int32
		for i, l := range raw {
			lists[i] = sortedCopy(l)
			all = append(all, l...)
		}
		return reflect.DeepEqual(KWayMerge(core.Nop, lists), sortedCopy(all))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcat(t *testing.T) {
	got := Concat(core.Nop, [][]int32{{1, 2}, nil, {3}})
	if !reflect.DeepEqual(got, []int32{1, 2, 3}) {
		t.Errorf("Concat = %v", got)
	}
}

func TestIsSortedAndGloballySorted(t *testing.T) {
	if !IsSorted(nil) || !IsSorted([]int32{1}) || !IsSorted([]int32{1, 1, 2}) {
		t.Error("IsSorted false negatives")
	}
	if IsSorted([]int32{2, 1}) {
		t.Error("IsSorted false positive")
	}
	if !IsGloballySorted([][]int32{{1, 2}, {}, {2, 3}}) {
		t.Error("IsGloballySorted false negative")
	}
	if IsGloballySorted([][]int32{{1, 5}, {4, 6}}) {
		t.Error("IsGloballySorted should reject overlapping parts")
	}
	if IsGloballySorted([][]int32{{2, 1}}) {
		t.Error("IsGloballySorted should reject unsorted part")
	}
}

func TestBlockDistribute(t *testing.T) {
	data := RandomInts(10, 1)
	parts := BlockDistribute(data, 3)
	if len(parts) != 3 {
		t.Fatalf("got %d parts", len(parts))
	}
	var back []int32
	for _, p := range parts {
		back = append(back, p...)
	}
	if !reflect.DeepEqual(back, data) {
		t.Error("concatenated blocks != original")
	}
	// Sizes must differ by at most 1.
	for _, p := range parts {
		if len(p) < 3 || len(p) > 4 {
			t.Errorf("uneven block size %d", len(p))
		}
	}
}

func TestRandomIntsDeterministic(t *testing.T) {
	a := RandomInts(100, 42)
	b := RandomInts(100, 42)
	c := RandomInts(100, 43)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed should give same data")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should give different data")
	}
}

func TestPartitionSorted(t *testing.T) {
	a := []int32{1, 2, 3, 4, 5, 6, 7, 8}
	parts := partitionSorted(core.Nop, a, []int32{3, 6}, 3)
	want := [][]int32{{1, 2, 3}, {4, 5, 6}, {7, 8}}
	if !reflect.DeepEqual(parts, want) {
		t.Errorf("partitionSorted = %v, want %v", parts, want)
	}
	// Splitter below all data: first part empty.
	parts = partitionSorted(core.Nop, a, []int32{0, 100}, 3)
	if len(parts[0]) != 0 || len(parts[1]) != 8 || len(parts[2]) != 0 {
		t.Errorf("extreme splitters: %v", parts)
	}
}

func TestPartitionUnsortedPreservesMultiset(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		nparts := rng.Intn(8) + 1
		data := RandomInts(n, int64(trial))
		pivots := sortedCopy(RandomInts(nparts-1, int64(trial+1000)))
		parts := partitionUnsorted(core.Nop, data, pivots, nparts)
		var all []int32
		for b, p := range parts {
			for _, v := range p {
				// Bucket invariant: pivots[b-1] < v <= pivots[b].
				if b > 0 && v <= pivots[b-1] {
					t.Fatalf("trial %d: value %d too small for bucket %d", trial, v, b)
				}
				if b < len(pivots) && v > pivots[b] {
					t.Fatalf("trial %d: value %d too large for bucket %d", trial, v, b)
				}
			}
			all = append(all, p...)
		}
		if !reflect.DeepEqual(sortedCopy(all), sortedCopy(data)) {
			t.Fatalf("trial %d: multiset not preserved", trial)
		}
	}
}

func TestPlanSplittersSortedAndBounded(t *testing.T) {
	samples := [][]int32{{5, 1, 9}, {2, 8}, {7}}
	sp := planSplitters(core.Nop, samples, 3)
	if len(sp) != 2 {
		t.Fatalf("want 2 splitters, got %d", len(sp))
	}
	if !IsSorted(sp) {
		t.Errorf("splitters not sorted: %v", sp)
	}
}

// charge is one Meter call, in order.
type charge struct {
	kind string
	n    float64
}

// chargeLog records every Meter call, so two sorts can be held to the same
// calls with the same totals in the same order.
type chargeLog []charge

func (l *chargeLog) Charge(sec float64) { *l = append(*l, charge{"charge", sec}) }
func (l *chargeLog) Flops(n float64)    { *l = append(*l, charge{"flops", n}) }
func (l *chargeLog) Cmps(n float64)     { *l = append(*l, charge{"cmps", n}) }
func (l *chargeLog) MemWords(n float64) { *l = append(*l, charge{"memwords", n}) }

// TestMergeSortMatchesTextbook holds MergeSort to the textbook's output and
// exact charges on every size up to 300, around every power of two up to
// 2^17 (so every partial-block length and both pass parities), and on
// inputs whose runs tie, are presorted or reversed, or hold the int32
// extremes that an overflowing tail count would miscount.
func TestMergeSortMatchesTextbook(t *testing.T) {
	var sizes []int
	for n := 0; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for k := 9; k <= 17; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	extremes := []int32{math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1, 0, -1}
	inputs := []struct {
		name string
		gen  func(n int) []int32
	}{
		{"random", func(n int) []int32 { return RandomInts(n, int64(n)) }},
		{"all-equal", func(n int) []int32 { return make([]int32, n) }},
		{"mod-7", func(n int) []int32 {
			a := RandomInts(n, int64(n))
			for i := range a {
				a[i] %= 7
			}
			return a
		}},
		{"presorted", func(n int) []int32 { return sortedCopy(RandomInts(n, int64(n))) }},
		{"reversed", func(n int) []int32 {
			a := sortedCopy(RandomInts(n, int64(n)))
			slices.Reverse(a)
			return a
		}},
		{"extremes", func(n int) []int32 {
			rng := rand.New(rand.NewSource(int64(n)))
			a := make([]int32, n)
			for i := range a {
				a[i] = extremes[rng.Intn(len(extremes))]
			}
			return a
		}},
	}
	for _, in := range inputs {
		for _, n := range sizes {
			a := in.gen(n)
			var got, want chargeLog
			gotOut := MergeSort(&got, a)
			wantOut := textbookMergeSort(&want, a)
			if !slices.Equal(gotOut, wantOut) {
				t.Fatalf("%s n=%d: output differs from the textbook's", in.name, n)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: charges %v, textbook %v", in.name, n, got, want)
			}
		}
	}
}

// textbookMergeSort is the textbook's bottom-up mergesort: passes of width
// 1, 2, 4, … below len(a), each merge charging the comparisons it performs.
// It is the oracle for MergeSort's output and charges, and shares no code
// with MergeSort's kernels.
func textbookMergeSort(m core.Meter, a []int32) []int32 {
	n := len(a)
	src, dst := slices.Clone(a), make([]int32, n)
	if n < 2 {
		return src
	}
	var cmps, moves int64
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			cmps += textbookMerge(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		moves += int64(n)
		src, dst = dst, src
	}
	m.Cmps(float64(cmps))
	m.MemWords(float64(moves) / 2) // int32: two elements per word
	return src
}

// textbookMerge is the textbook's stable merge of sorted runs a and b into
// dst: one comparison per element emitted while both runs are live, ties
// to a. It returns the comparisons.
func textbookMerge(dst, a, b []int32) int64 {
	var i, j, k int
	var cmps int64
	for i < len(a) && j < len(b) {
		cmps++
		if b[j] < a[i] {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
	return cmps
}

// TestKWayMergeMatchesTextbook holds KWayMerge to a textbook tree merge's
// output and exact charges: list counts 0 to 9, list lengths on both sides
// of splitMin, so that two-list merges run both whole and cut in two, and
// lists whose values tie within and across lists or hold the int32
// extremes.
func TestKWayMergeMatchesTextbook(t *testing.T) {
	extremes := []int32{math.MinInt32, math.MaxInt32, math.MinInt32 + 1, math.MaxInt32 - 1, 0, -1}
	lengths := []int{0, 1, 2, 17, splitMin/2 - 1, splitMin / 2, splitMin/2 + 1, splitMin - 1, splitMin, splitMin + 1, 3*splitMin + 5}
	values := []struct {
		name string
		gen  func(rng *rand.Rand) int32
	}{
		{"random", func(rng *rand.Rand) int32 { return int32(rng.Uint32()) }},
		{"mod-7", func(rng *rand.Rand) int32 { return int32(rng.Intn(7)) }},
		{"all-equal", func(rng *rand.Rand) int32 { return 3 }},
		{"extremes", func(rng *rand.Rand) int32 { return extremes[rng.Intn(len(extremes))] }},
	}
	rng := rand.New(rand.NewSource(1))
	for _, v := range values {
		for k := 0; k <= 9; k++ {
			for trial := 0; trial < 4; trial++ {
				lists := make([][]int32, k)
				for i := range lists {
					l := make([]int32, lengths[rng.Intn(len(lengths))])
					for j := range l {
						l[j] = v.gen(rng)
					}
					slices.Sort(l)
					lists[i] = l
				}
				var got, want chargeLog
				gotOut := KWayMerge(&got, lists)
				wantOut := textbookKWayMerge(&want, lists)
				if !slices.Equal(gotOut, wantOut) {
					t.Fatalf("%s k=%d trial %d: output differs from the textbook's", v.name, k, trial)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s k=%d trial %d: charges %v, textbook %v", v.name, k, trial, got, want)
				}
			}
		}
	}
}

// textbookKWayMerge is the textbook's balanced tree of two-way merges:
// each level merges adjacent lists with textbookMerge, carries a trailing
// list with no partner uncharged, and charges one move per merged element.
// Fewer than two lists are charged as a copy.
func textbookKWayMerge(m core.Meter, lists [][]int32) []int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	if len(lists) <= 1 {
		m.Cmps(0)
		m.MemWords(float64(total) / 2)
		return slices.Concat(lists...)
	}
	var cmps, moves int64
	for len(lists) > 1 {
		var next [][]int32
		for p := 0; p < len(lists); p += 2 {
			if p+1 == len(lists) {
				next = append(next, lists[p])
				break
			}
			d := make([]int32, len(lists[p])+len(lists[p+1]))
			cmps += textbookMerge(d, lists[p], lists[p+1])
			moves += int64(len(d))
			next = append(next, d)
		}
		lists = next
	}
	m.Cmps(float64(cmps))
	m.MemWords(float64(moves) / 2)
	return lists[0]
}
