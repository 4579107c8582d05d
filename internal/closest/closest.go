// Package closest implements the closest pair of points in the plane, the
// other problem §2.6 lists as amenable to a one-deep solution.
//
// The sequential algorithm is the classic O(n log n) divide and conquer
// (split by x, recurse, check the δ-strip around the median in y order).
// The one-deep version has a non-trivial split like quicksort's: sample
// x-coordinates, choose N-1 vertical splitters, and redistribute so
// process i owns strip i. Each process solves its strip sequentially; the
// merge phase reduces the global candidate distance δ and then exchanges
// splitter bands — every point within δ of splitter k is delivered to
// process k+1, which checks cross-strip pairs — followed by a final
// min-reduction. Any cross-strip pair closer than δ lies within δ of some
// splitter separating its endpoints, so the band exchange is exhaustive.
package closest

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/spmd"
)

// Pt is a point in the plane.
type Pt struct {
	X, Y float64
}

// Pts is a point list: a payload type, registered below.
type Pts []Pt

// Pair is a candidate closest pair; Dist2 is the squared distance.
// The zero pair is "no pair found" (infinite distance).
type Pair struct {
	A, B  Pt
	Dist2 float64
	Valid bool
}

// A point list travels as its points' two float64s each.
func init() {
	spmd.RegisterSlice(16, spmd.Words(2, func(p Pt) [8]uint64 { return [8]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)} },
		func(w [8]uint64) Pt { return Pt{math.Float64frombits(w[0]), math.Float64frombits(w[1])} }), Pts{{1, 2}, {-3, 4.5}})
	// A Pair is priced at five words and travels as six: no narrower on
	// the wire than in memory.
	f := math.Float64bits
	spmd.Register(40, spmd.Words(6, func(p Pair) [8]uint64 {
		return [8]uint64{f(p.A.X), f(p.A.Y), f(p.B.X), f(p.B.Y), f(p.Dist2), spmd.Bit(p.Valid)}
	}, func(w [8]uint64) Pair {
		g := math.Float64frombits
		return Pair{Pt{g(w[0]), g(w[1])}, Pt{g(w[2]), g(w[3])}, g(w[4]), w[5] != 0}
	}), Pair{Pt{1, 2}, Pt{3, 4}, 8, true})
}

func dist2(a, b Pt) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// better returns the closer of two candidates; ties resolve to a for
// determinism of reductions.
func better(a, b Pair) Pair {
	switch {
	case !a.Valid:
		return b
	case !b.Valid:
		return a
	case b.Dist2 < a.Dist2:
		return b
	default:
		return a
	}
}

// BruteForce checks all pairs — O(n²), the testing oracle.
func BruteForce(pts []Pt) Pair {
	best := Pair{Dist2: math.Inf(1)}
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := dist2(pts[i], pts[j]); !best.Valid || d < best.Dist2 {
				best = Pair{pts[i], pts[j], d, true}
			}
		}
	}
	return best
}

// byXY orders points by x, then y: -1 exactly when a sorts before b.
func byXY(a, b Pt) int {
	switch {
	case a.X < b.X, a.X == b.X && a.Y < b.Y:
		return -1
	case a.X == b.X && a.Y == b.Y:
		return 0
	}
	return 1
}

// DivideAndConquer returns the closest pair in O(n log n), charging m.
// Inputs with fewer than two points return an invalid pair.
func DivideAndConquer(m core.Meter, pts []Pt) Pair {
	if len(pts) < 2 {
		return Pair{Dist2: math.Inf(1)}
	}
	byX := make([]Pt, len(pts))
	copy(byX, pts)
	slices.SortFunc(byX, byXY)
	m.Cmps(float64(len(pts)) * math.Log2(float64(len(pts))+2))
	// The recursion merges y orders between the two halves of buf, level
	// by level, so nothing else is allocated.
	buf := make([]Pt, 2*len(pts))
	var flops float64
	best := rec(byX, buf[:len(pts)], buf[len(pts):], &flops)
	m.Flops(flops)
	return best
}

// byY orders points by y alone: 0 on equal y.
func byY(a, b Pt) int {
	switch {
	case a.Y < b.Y:
		return -1
	case a.Y == b.Y:
		return 0
	}
	return 1
}

// rec returns the closest pair within byX (sorted by x) and writes the
// same points sorted by y into y. tmp, as long as y, is its scratch: the
// halves sort into tmp, using y as theirs, and merge from there into y.
// After the merge, tmp holds the strip.
func rec(byX, y, tmp []Pt, flops *float64) Pair {
	n := len(byX)
	if n <= 3 {
		best := BruteForce(byX)
		*flops += float64(n * n * 4)
		copy(y, byX)
		slices.SortFunc(y, byY)
		return best
	}
	mid := n / 2
	midX := byX[mid].X
	left := rec(byX[:mid], tmp[:mid], y[:mid], flops)
	right := rec(byX[mid:], tmp[mid:], y[mid:], flops)
	best := better(left, right)

	// Merge by y, stably: on equal y the left half's point comes first.
	leftY, rightY := tmp[:mid], tmp[mid:]
	i, j, k := 0, 0, 0
	for i < len(leftY) && j < len(rightY) {
		if leftY[i].Y <= rightY[j].Y {
			y[k] = leftY[i]
			i++
		} else {
			y[k] = rightY[j]
			j++
		}
		k++
	}
	k += copy(y[k:], leftY[i:])
	copy(y[k:], rightY[j:])
	*flops += float64(n)

	// Strip check: points within sqrt(best) of the split line, in y
	// order; each needs comparing with at most the next 7.
	d := math.Sqrt(best.Dist2)
	strip := tmp[:0]
	for _, p := range y {
		if math.Abs(p.X-midX) < d {
			strip = append(strip, p)
		}
	}
	for i := 0; i < len(strip); i++ {
		for j := i + 1; j < len(strip) && strip[j].Y-strip[i].Y < d; j++ {
			if dd := dist2(strip[i], strip[j]); dd < best.Dist2 {
				best = Pair{strip[i], strip[j], dd, true}
				d = math.Sqrt(dd)
			}
			*flops += 6
		}
	}
	return best
}

// samplesPerProc is the x-sample count per process for splitter planning.
const samplesPerProc = 16

// OneDeepSPMD runs the one-deep closest-pair algorithm as process p's
// body over its local points; every process returns the same global
// closest pair. A world with fewer than two points total returns an
// invalid pair everywhere.
func OneDeepSPMD(p spmd.Comm, local []Pt) Pair {
	n := p.N()

	// --- Split phase (non-trivial, like quicksort's §2.6.2): sample x,
	// plan splitters, redistribute into strips.
	sample := make([]float64, 0, samplesPerProc)
	for i := 1; i <= samplesPerProc && len(local) > 0; i++ {
		sample = append(sample, local[(i-1)*len(local)/samplesPerProc].X)
	}
	allSamples := collective.AllGather(p, sample)
	var pool []float64
	for _, s := range allSamples {
		pool = append(pool, s...)
	}
	sort.Float64s(pool)
	p.Cmps(float64(len(pool)) * math.Log2(float64(len(pool))+2))
	splitters := make([]float64, 0, n-1)
	for i := 1; i < n; i++ {
		if len(pool) == 0 {
			splitters = append(splitters, 0)
			continue
		}
		idx := i * len(pool) / n
		if idx >= len(pool) {
			idx = len(pool) - 1
		}
		splitters = append(splitters, pool[idx])
	}

	parts := make([]Pts, n)
	for _, pt := range local {
		b := sort.SearchFloat64s(splitters, pt.X)
		// Points equal to a splitter go to the right strip, so strip k
		// is [s_{k-1}, s_k).
		for b < len(splitters) && pt.X == splitters[b] {
			b++
		}
		parts[b] = append(parts[b], pt)
	}
	p.Cmps(float64(len(local)) * math.Log2(float64(n)+2))
	recv := collective.AllToAll(p, parts)
	var strip Pts
	for _, r := range recv {
		strip = append(strip, r...)
	}
	p.MemWords(float64(len(strip)) * 2)

	// --- Solve phase: sequential divide and conquer within the strip.
	best := DivideAndConquer(p, strip)

	// --- Merge phase: global candidate δ, then band exchange across
	// splitters, then the final reduction.
	best = collective.AllReduce(p, best, better)
	d := math.Inf(1)
	if best.Valid {
		d = math.Sqrt(best.Dist2)
	}

	// Each process contributes its points within δ of splitter k to the
	// band owned by process k+1.
	bands := make([]Pts, n)
	for k, s := range splitters {
		if math.IsInf(d, 1) {
			// No candidate yet (fewer than 2 points in every strip):
			// fall back to shipping everything so correctness holds.
			bands[k+1] = append(bands[k+1], strip...)
			continue
		}
		for _, pt := range strip {
			if math.Abs(pt.X-s) < d {
				bands[k+1] = append(bands[k+1], pt)
			}
		}
	}
	p.Flops(float64(len(strip) * len(splitters)))
	got := collective.AllToAll(p, bands)
	var band Pts
	for _, g := range got {
		band = append(band, g...)
	}
	if len(band) > 1 {
		cand := DivideAndConquer(p, band)
		best = better(best, cand)
	}
	return collective.AllReduce(p, best, better)
}

// RandomPoints returns n deterministic pseudo-random points in
// [0,span)×[0,span).
func RandomPoints(n int, seed int64, span float64) []Pt {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Pt, n)
	for i := range out {
		out[i] = Pt{rng.Float64() * span, rng.Float64() * span}
	}
	return out
}
