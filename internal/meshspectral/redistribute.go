package meshspectral

import (
	"repro/internal/spmd"
)

// subBlock is a rectangular fragment of a grid in transit during
// redistribution, gather, or scatter.
type subBlock[T any] struct {
	X0, X1, Y0, Y1 int
	Data           []T
}

// wire is a block's form on the wire: its four bounds are the header
// words, so it prices as its data plus 32.
func (b subBlock[T]) wire() spmd.Wrapped {
	return spmd.Wrapped{K: 4, Head: [4]int64{int64(b.X0), int64(b.X1), int64(b.Y0), int64(b.Y1)}, Body: b.Data}
}

// blockOf undoes wire.
func blockOf[T any](w spmd.Wrapped) subBlock[T] {
	return subBlock[T]{int(w.Head[0]), int(w.Head[1]), int(w.Head[2]), int(w.Head[3]), w.Body.([]T)}
}

// extract packs the intersection of this grid's owned block with the
// rectangle [x0,x1)×[y0,y1); it returns an empty block when disjoint.
func (g *Grid2D[T]) extract(x0, x1, y0, y1 int) subBlock[T] {
	if x0 < g.ix0 {
		x0 = g.ix0
	}
	if x1 > g.ix1 {
		x1 = g.ix1
	}
	if y0 < g.iy0 {
		y0 = g.iy0
	}
	if y1 > g.iy1 {
		y1 = g.iy1
	}
	if x0 >= x1 || y0 >= y1 {
		return subBlock[T]{}
	}
	data := make([]T, 0, (x1-x0)*(y1-y0))
	for gi := x0; gi < x1; gi++ {
		row := g.loc.Row(gi - g.ix0 + g.H)
		data = append(data, row[y0-g.iy0+g.H:y1-g.iy0+g.H]...)
	}
	return subBlock[T]{X0: x0, X1: x1, Y0: y0, Y1: y1, Data: data}
}

// insert writes a received fragment into the owned block.
func (g *Grid2D[T]) insert(b subBlock[T]) {
	if len(b.Data) == 0 {
		return
	}
	w := b.Y1 - b.Y0
	k := 0
	for gi := b.X0; gi < b.X1; gi++ {
		row := g.loc.Row(gi - g.ix0 + g.H)
		copy(row[b.Y0-g.iy0+g.H:b.Y1-g.iy0+g.H], b.Data[k:k+w])
		k += w
	}
}

// Redistribute returns a new grid with the same global contents
// distributed according to newL — the archetype's general
// data-redistribution operation (§3.3, Figure 7), used for example
// between the row FFTs and column FFTs of the 2D FFT (Figure 11). Only
// the point-to-point messages with non-empty intersections are sent.
// Ghost contents are not transferred; call ExchangeBoundary on the result
// if needed.
func (g *Grid2D[T]) Redistribute(newL Layout) *Grid2D[T] {
	p := g.p
	n := p.N()
	out := New2D[T](p, g.NX, g.NY, newL, g.H)
	out.perX, out.perY = g.perX, g.perY
	if newL == g.L {
		out.copyFrom(g)
		return out
	}

	// Send my intersection with every destination's new block, ascending
	// rank order, skipping empty pieces; self-intersection is copied.
	for dst := 0; dst < n; dst++ {
		dx, dy := newL.Coords(dst)
		x0, x1 := blockRange(g.NX, newL.PX, dx)
		y0, y1 := blockRange(g.NY, newL.PY, dy)
		b := g.extract(x0, x1, y0, y1)
		if len(b.Data) == 0 {
			continue
		}
		p.MemWords(float64(len(b.Data)) * g.words)
		if dst == p.Rank() {
			out.insert(b)
			continue
		}
		spmd.SendT(p, dst, tagRedist, b.wire())
	}

	// Receive from every source whose old block intersects my new block,
	// ascending rank order (deterministic timing).
	for src := 0; src < n; src++ {
		if src == p.Rank() {
			continue
		}
		sx, sy := g.L.Coords(src)
		x0, x1 := blockRange(g.NX, g.L.PX, sx)
		y0, y1 := blockRange(g.NY, g.L.PY, sy)
		if !rectsIntersect(x0, x1, y0, y1, out.ix0, out.ix1, out.iy0, out.iy1) {
			continue
		}
		b := blockOf[T](spmd.Recv[spmd.Wrapped](p, src, tagRedist))
		out.insert(b)
		p.MemWords(float64(len(b.Data)) * g.words)
	}
	return out
}

// rectsIntersect reports whether the two rectangles share at least one
// point. The overlap-width formulation handles empty rectangles
// (x0 == x1) correctly — an empty block intersects nothing, matching the
// sender-side emptiness test exactly (a mismatch would deadlock the
// redistribution).
func rectsIntersect(ax0, ax1, ay0, ay1, bx0, bx1, by0, by1 int) bool {
	return max(ax0, bx0) < min(ax1, bx1) && max(ay0, by0) < min(ay1, by1)
}
