// Package hull implements the planar convex hull, one of the problems
// §2.6 lists as amenable to one-deep divide and conquer.
//
// The sequential algorithm is Andrew's monotone chain. The one-deep
// version has a degenerate split (points arrive distributed), a local
// solve computing each process's hull, and a merge phase in which the
// local hulls — already small — are all-gathered, the global hull is
// computed from their union (replicated in every process, one of the
// paper's §2.3 parameter strategies), and each process keeps its block of
// the result; the global hull is the rank-order concatenation.
package hull

import (
	"math"
	"math/rand"
	"slices"

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

// A point list travels as its points' two float64s each.
func init() {
	spmd.RegisterSlice(16, spmd.Words(2, func(p Pt) [8]uint64 { return [8]uint64{math.Float64bits(p.X), math.Float64bits(p.Y)} },
		func(w [8]uint64) Pt { return Pt{math.Float64frombits(w[0]), math.Float64frombits(w[1])} }), Pts{{1, 2}, {-3, 4.5}})
}

// cross returns the z-component of (a-o)×(b-o): positive for a left turn.
func cross(o, a, b Pt) float64 {
	return (a.X-o.X)*(b.Y-o.Y) - (a.Y-o.Y)*(b.X-o.X)
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

// MonotoneChain returns the convex hull of pts in counter-clockwise order
// starting from the lexicographically smallest point, excluding collinear
// interior points. The input is not modified. Degenerate inputs (fewer
// than 3 distinct points, or all collinear) return the extreme points.
func MonotoneChain(m core.Meter, pts []Pt) Pts {
	n := len(pts)
	if n == 0 {
		return nil
	}
	ps := make(Pts, n)
	copy(ps, pts)
	slices.SortFunc(ps, byXY)
	// Dedupe.
	uniq := ps[:1]
	for _, p := range ps[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	ps = uniq
	n = len(ps)
	m.Cmps(float64(n) * math.Log2(float64(n)+2))
	if n < 3 {
		out := make(Pts, n)
		copy(out, ps)
		return out
	}
	hull := make(Pts, 0, 2*n)
	var flops float64
	// Lower chain.
	for _, p := range ps {
		for len(hull) >= 2 && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
			flops += 7
		}
		hull = append(hull, p)
		flops += 7
	}
	// Upper chain.
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		p := ps[i]
		for len(hull) >= lower && cross(hull[len(hull)-2], hull[len(hull)-1], p) <= 0 {
			hull = hull[:len(hull)-1]
			flops += 7
		}
		hull = append(hull, p)
		flops += 7
	}
	m.Flops(flops)
	out := hull[:len(hull)-1] // last point repeats the first
	if len(out) == 2 && out[0] == out[1] {
		out = out[:1]
	}
	return out
}

// OneDeepSPMD is the SPMD one-deep hull: local hull, all-gather of local
// hulls, replicated global hull, block-distributed result. The global
// hull is the rank-order concatenation of the returned pieces.
func OneDeepSPMD(p spmd.Comm, local []Pt) Pts {
	lh := MonotoneChain(p, local)
	all := collective.AllGather(p, lh)
	var union Pts
	for _, h := range all {
		union = append(union, h...)
	}
	global := MonotoneChain(p, union)
	lo := p.Rank() * len(global) / p.N()
	hi := (p.Rank() + 1) * len(global) / p.N()
	return global[lo:hi]
}

// OneDeepV1 is the version-1 (parfor) form of the same algorithm,
// executable sequentially or concurrently with identical results.
func OneDeepV1(mode core.Mode, blocks [][]Pt) []Pts {
	n := len(blocks)
	locals := make([]Pts, n)
	core.ParFor(mode, n, func(i int) {
		locals[i] = MonotoneChain(core.Nop, blocks[i])
	})
	var union Pts
	for _, h := range locals {
		union = append(union, h...)
	}
	global := MonotoneChain(core.Nop, union)
	out := make([]Pts, n)
	core.ParFor(mode, n, func(i int) {
		out[i] = global[i*len(global)/n : (i+1)*len(global)/n]
	})
	return out
}

// Contains reports whether q lies inside or on the hull polygon (given in
// CCW order).
func Contains(hull Pts, q Pt) bool {
	if len(hull) == 0 {
		return false
	}
	if len(hull) == 1 {
		return hull[0] == q
	}
	if len(hull) == 2 {
		// On-segment test.
		if cross(hull[0], hull[1], q) != 0 {
			return false
		}
		minX, maxX := hull[0].X, hull[1].X
		if minX > maxX {
			minX, maxX = maxX, minX
		}
		minY, maxY := hull[0].Y, hull[1].Y
		if minY > maxY {
			minY, maxY = maxY, minY
		}
		return q.X >= minX && q.X <= maxX && q.Y >= minY && q.Y <= maxY
	}
	for i := range hull {
		j := (i + 1) % len(hull)
		if cross(hull[i], hull[j], q) < 0 {
			return false
		}
	}
	return true
}

// IsConvexCCW reports whether the polygon is strictly convex in CCW order.
func IsConvexCCW(hull Pts) bool {
	if len(hull) < 3 {
		return true
	}
	for i := range hull {
		a := hull[i]
		b := hull[(i+1)%len(hull)]
		c := hull[(i+2)%len(hull)]
		if cross(a, b, c) <= 0 {
			return false
		}
	}
	return true
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
