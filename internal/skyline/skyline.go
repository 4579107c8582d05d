// Package skyline implements the skyline problem of §2.6.1: merging a
// collection of rectangular buildings into a single skyline.
//
// The sequential algorithm is the classic divide and conquer (base case:
// one building is a skyline; merge: combine two skylines considering their
// overlap). The one-deep version follows the paper step by step: degenerate
// split (buildings arrive distributed), local solve with the sequential
// algorithm, then a merge phase that samples the local skylines' point
// distribution, computes vertical splitter lines cutting all skylines into
// N regions with approximately equal point counts, redistributes the
// clipped pieces so each process owns one region, and merges locally. The
// final skyline is the concatenation of the local skylines.
package skyline

import (
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/onedeep"
	"repro/internal/spmd"
)

// Building is an axis-aligned rectangle sitting on the x-axis.
type Building struct {
	Left, Right, Height float64
}

// Point is a skyline critical point: from X onward the skyline has height
// H, until the next point.
type Point struct {
	X, H float64
}

// Skyline is a sequence of critical points with strictly increasing X and
// no consecutive equal heights; the height before the first point is 0.
// A complete (un-clipped) skyline ends with a point of height 0.
type Skyline []Point

// A skyline travels as its points' two float64s each.
func init() {
	spmd.RegisterSlice(16, spmd.Words(2, func(p Point) [8]uint64 { return [8]uint64{math.Float64bits(p.X), math.Float64bits(p.H)} },
		func(w [8]uint64) Point { return Point{math.Float64frombits(w[0]), math.Float64frombits(w[1])} }), Skyline{{1, 2}, {-3, 4.5}})
}

// FromBuilding returns the skyline of a single building — the base case of
// the divide and conquer.
func FromBuilding(b Building) Skyline {
	if b.Left >= b.Right || b.Height <= 0 {
		return nil
	}
	return Skyline{{b.Left, b.Height}, {b.Right, 0}}
}

// MergeTwo merges two skylines into one — the conquer step — charging one
// comparison-exchange per point consumed. Unlike Normalize, a leading
// zero-height point is preserved: for clipped regional skylines (see Clip)
// it records that the region starts at ground level, which matters when
// the previous region ended higher.
func MergeTwo(m core.Meter, a, b Skyline) Skyline {
	out := make(Skyline, 0, len(a)+len(b))
	i, j := 0, 0
	ha, hb := 0.0, 0.0
	emitted := false
	lastH := 0.0
	for i < len(a) || j < len(b) {
		var x float64
		switch {
		case j >= len(b) || (i < len(a) && a[i].X < b[j].X):
			x = a[i].X
			ha = a[i].H
			i++
		case i >= len(a) || b[j].X < a[i].X:
			x = b[j].X
			hb = b[j].H
			j++
		default: // equal X: consume both
			x = a[i].X
			ha = a[i].H
			hb = b[j].H
			i++
			j++
		}
		h := math.Max(ha, hb)
		if !emitted || h != lastH {
			out = append(out, Point{x, h})
			lastH = h
			emitted = true
		}
	}
	m.Cmps(float64(len(a) + len(b)))
	return out
}

// Normalize removes redundant critical points (consecutive equal heights,
// duplicate X keeping the last) and returns a canonical skyline.
func Normalize(pts []Point) Skyline {
	out := make(Skyline, 0, len(pts))
	cur := 0.0
	for k := 0; k < len(pts); k++ {
		// Collapse runs with equal X to the final height at that X.
		if k+1 < len(pts) && pts[k+1].X == pts[k].X {
			continue
		}
		if pts[k].H != cur {
			out = append(out, pts[k])
			cur = pts[k].H
		}
	}
	return out
}

// Compute returns the skyline of the buildings using sequential divide and
// conquer, charging m.
func Compute(m core.Meter, bs []Building) Skyline {
	switch len(bs) {
	case 0:
		return nil
	case 1:
		return FromBuilding(bs[0])
	}
	mid := len(bs) / 2
	return MergeTwo(m, Compute(m, bs[:mid]), Compute(m, bs[mid:]))
}

// HeightAt returns the skyline height at x.
func HeightAt(s Skyline, x float64) float64 {
	// Last point with X <= x determines the height.
	idx := sort.Search(len(s), func(i int) bool { return s[i].X > x })
	if idx == 0 {
		return 0
	}
	return s[idx-1].H
}

// Clip returns the restriction of s to the half-open interval [a, b):
// a synthetic point at a carrying the height there (omitted when a is
// -Inf or the height is unchanged from zero), followed by the points with
// a < X < b. The restriction of the global skyline to consecutive regions
// concatenates (after Normalize) back to the global skyline.
func Clip(m core.Meter, s Skyline, a, b float64) Skyline {
	if a >= b {
		return nil
	}
	out := make(Skyline, 0, 4)
	if !math.IsInf(a, -1) {
		out = append(out, Point{a, HeightAt(s, a)})
	}
	lo := sort.Search(len(s), func(i int) bool { return s[i].X > a })
	for k := lo; k < len(s) && s[k].X < b; k++ {
		out = append(out, s[k])
	}
	m.MemWords(float64(len(out)) * 2)
	return out
}

// Assemble concatenates per-region skylines (in region order) and
// normalizes — the paper's final "concatenation of the local skylines".
func Assemble(parts []Skyline) Skyline {
	var all []Point
	for _, p := range parts {
		all = append(all, p...)
	}
	return Normalize(all)
}

// Equal reports whether two skylines describe the same height function.
func Equal(a, b Skyline) bool {
	a, b = Normalize(a), Normalize(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// BruteForce computes the skyline by sweeping all critical x-coordinates —
// O(n²), for testing the divide and conquer against.
func BruteForce(bs []Building) Skyline {
	xs := make([]float64, 0, 2*len(bs))
	for _, b := range bs {
		if b.Left < b.Right && b.Height > 0 {
			xs = append(xs, b.Left, b.Right)
		}
	}
	sort.Float64s(xs)
	var pts []Point
	for i, x := range xs {
		if i > 0 && x == xs[i-1] {
			continue
		}
		h := 0.0
		for _, b := range bs {
			if b.Left <= x && x < b.Right && b.Height > h {
				h = b.Height
			}
		}
		pts = append(pts, Point{x, h})
	}
	return Normalize(pts)
}

// samplesPerProc is how many x-coordinate samples each process contributes
// to splitter planning.
const samplesPerProc = 16

// Spec returns the one-deep skyline algorithm of §2.6.1 as an archetype
// spec: degenerate split, sequential-D&C local solve, and a merge phase
// cutting all local skylines at shared vertical splitter lines.
func Spec(strategy onedeep.ParamStrategy) *onedeep.Spec[[]Building, Skyline, struct{}, []float64] {
	return &onedeep.Spec[[]Building, Skyline, struct{}, []float64]{
		Name:  "one-deep skyline",
		Split: nil, // degenerate: buildings arrive distributed
		Solve: func(m core.Meter, local []Building) Skyline {
			return Compute(m, local)
		},
		Merge: &onedeep.Exchange[Skyline, []float64]{
			Strategy: strategy,
			// Sample the local point distribution: regular x samples,
			// always including the leftmost and rightmost points
			// (the paper's step 1).
			Sample: func(m core.Meter, local Skyline) []float64 {
				if len(local) == 0 {
					return nil
				}
				out := []float64{local[0].X, local[len(local)-1].X}
				for i := 1; i <= samplesPerProc; i++ {
					out = append(out, local[i*len(local)/(samplesPerProc+1)].X)
				}
				m.MemWords(float64(len(out)))
				return out
			},
			// Splitters are x-quantiles of the pooled samples: vertical
			// lines cutting all skylines into N regions with
			// approximately equal point counts (the paper's step 2).
			Plan: func(m core.Meter, samples [][]float64) []float64 {
				n := len(samples)
				var all []float64
				for _, s := range samples {
					all = append(all, s...)
				}
				sort.Float64s(all)
				m.Cmps(float64(len(all)) * math.Log2(float64(len(all))+2))
				splitters := make([]float64, 0, n-1)
				for i := 1; i < n; i++ {
					if len(all) == 0 {
						splitters = append(splitters, 0)
						continue
					}
					idx := i * len(all) / n
					if idx >= len(all) {
						idx = len(all) - 1
					}
					splitters = append(splitters, all[idx])
				}
				return splitters
			},
			// Cut the local skyline at the splitters (steps 3-4).
			Partition: func(m core.Meter, local Skyline, splitters []float64, n int) []Skyline {
				parts := make([]Skyline, n)
				lo := math.Inf(-1)
				for i := 0; i < n; i++ {
					hi := math.Inf(1)
					if i < len(splitters) {
						hi = splitters[i]
					}
					parts[i] = Clip(m, local, lo, hi)
					lo = hi
				}
				return parts
			},
			// Merge the pieces that landed in this region (step 5).
			Combine: func(m core.Meter, parts []Skyline) Skyline {
				var acc Skyline
				for _, p := range parts {
					acc = MergeTwo(m, acc, p)
				}
				return acc
			},
		},
	}
}

// RandomBuildings generates n deterministic pseudo-random buildings over
// roughly [0, span].
func RandomBuildings(n int, seed int64, span float64) []Building {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Building, n)
	for i := range out {
		left := rng.Float64() * span
		width := rng.Float64()*span/20 + span/200
		out[i] = Building{Left: left, Right: left + width, Height: rng.Float64()*90 + 10}
	}
	return out
}
