package meshspectral

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/spmd"
)

// Grid2D is one process's view of a distributed NX×NY grid: the owned
// block determined by the layout, surrounded by a ghost boundary of width
// H holding shadow copies of neighbouring processes' boundary values
// (Figure 8). All indices in the API are global.
type Grid2D[T any] struct {
	p      spmd.Comm
	NX, NY int
	L      Layout
	H      int
	perX   bool
	perY   bool

	px, py             int // block coordinates
	ix0, ix1, iy0, iy1 int // owned global ranges [ix0,ix1) × [iy0,iy1)
	loc                *array.Dense2D[T]
	words              float64 // elemWords[T](), computed once
	spare              [4][]T  // a halo buffer per neighbour: see ExchangeBoundary
}

// New2D creates this process's section of an NX×NY grid distributed
// according to l with ghost width halo.
func New2D[T any](p spmd.Comm, nx, ny int, l Layout, halo int) *Grid2D[T] {
	if err := l.Validate(p.N()); err != nil {
		panic(err.Error())
	}
	if halo < 0 {
		panic("meshspectral: negative halo")
	}
	g := &Grid2D[T]{p: p, NX: nx, NY: ny, L: l, H: halo, words: elemWords[T]()}
	g.px, g.py = l.Coords(p.Rank())
	g.ix0, g.ix1 = blockRange(nx, l.PX, g.px)
	g.iy0, g.iy1 = blockRange(ny, l.PY, g.py)
	g.loc = array.New2D[T](g.ix1-g.ix0+2*halo, g.iy1-g.iy0+2*halo)
	return g
}

// SetPeriodic configures periodic wrap-around in each dimension for
// boundary exchange.
func (g *Grid2D[T]) SetPeriodic(x, y bool) { g.perX, g.perY = x, y }

// Proc returns the owning process.
func (g *Grid2D[T]) Proc() spmd.Comm { return g.p }

// OwnedX returns the owned global i-range [lo, hi).
func (g *Grid2D[T]) OwnedX() (int, int) { return g.ix0, g.ix1 }

// OwnedY returns the owned global j-range [lo, hi).
func (g *Grid2D[T]) OwnedY() (int, int) { return g.iy0, g.iy1 }

// InteriorX returns the intersection of the owned i-range with the global
// interior [1, NX-1) — the paper's xintersect (Figure 14).
func (g *Grid2D[T]) InteriorX() (int, int) {
	lo, hi := g.ix0, g.ix1
	if lo < 1 {
		lo = 1
	}
	if hi > g.NX-1 {
		hi = g.NX - 1
	}
	return lo, hi
}

// InteriorY returns the intersection of the owned j-range with the global
// interior [1, NY-1) — the paper's yintersect (Figure 14).
func (g *Grid2D[T]) InteriorY() (int, int) {
	lo, hi := g.iy0, g.iy1
	if lo < 1 {
		lo = 1
	}
	if hi > g.NY-1 {
		hi = g.NY - 1
	}
	return lo, hi
}

func (g *Grid2D[T]) check(gi, gj int) (int, int) {
	li, lj := gi-g.ix0+g.H, gj-g.iy0+g.H
	if li < 0 || li >= g.loc.NX || lj < 0 || lj >= g.loc.NY {
		panic(fmt.Sprintf("meshspectral: access (%d,%d) outside local section [%d,%d)x[%d,%d) with halo %d",
			gi, gj, g.ix0, g.ix1, g.iy0, g.iy1, g.H))
	}
	return li, lj
}

// At returns the value at global point (gi, gj), which must lie within the
// owned block or its ghost boundary. At and Set are the cold-path
// accessors — physical-boundary ghost fills, assembly, tests — and pay a
// range check and an index translation per point; sweeps and scans take
// the whole block through View.
func (g *Grid2D[T]) At(gi, gj int) T {
	li, lj := g.check(gi, gj)
	return g.loc.At(li, lj)
}

// Set assigns the value at global point (gi, gj); ghost cells may be
// written (useful for physical boundary conditions).
func (g *Grid2D[T]) Set(gi, gj int, v T) {
	li, lj := g.check(gi, gj)
	g.loc.Set(li, lj, v)
}

// View returns the local storage behind the global rectangle
// [x0,x1)×[y0,y1) and its ring, for a sweep or a scan that takes the
// whole block at once. The ring is one point wide on a grid with a ghost
// boundary and empty on one without. data runs from the ring's first
// point to its last, row by row, and point (gi, gj) of the rectangle or
// its ring is data[off+(gi-x0)*stride+(gj-y0)]. Writes through data are
// writes to the grid. The rectangle and its ring are checked once, here,
// so a five-point stencil over the rectangle needs no further check than
// the slicing of data; the ring may reach into the ghost boundary.
func (g *Grid2D[T]) View(x0, x1, y0, y1 int) (data []T, stride, off int) {
	w := min(g.H, 1)
	l0, l1 := x0-g.ix0+g.H-w, x1-g.ix0+g.H+w
	c0, c1 := y0-g.iy0+g.H-w, y1-g.iy0+g.H+w
	if x0 > x1 || y0 > y1 || l0 < 0 || l1 > g.loc.NX || c0 < 0 || c1 > g.loc.NY {
		panic(fmt.Sprintf("meshspectral: view [%d,%d)x[%d,%d) with its ring outside local section [%d,%d)x[%d,%d) with halo %d",
			x0, x1, y0, y1, g.ix0, g.ix1, g.iy0, g.iy1, g.H))
	}
	stride = g.loc.NY
	lo, hi := l0*stride+c0, (l1-1)*stride+c1
	if l0 == l1 || c0 == c1 { // an empty rectangle without a ring holds no point
		lo, hi = 0, 0
	}
	return g.loc.Data[lo:hi:hi], stride, w*stride + w
}

// Fill sets every owned point to f(gi, gj) without communication or
// compute charges (initialization).
func (g *Grid2D[T]) Fill(f func(gi, gj int) T) {
	for gi := g.ix0; gi < g.ix1; gi++ {
		row := g.loc.Row(gi - g.ix0 + g.H)
		for gj := g.iy0; gj < g.iy1; gj++ {
			row[gj-g.iy0+g.H] = f(gi, gj)
		}
	}
}

// copyFrom copies the owned block of src (which must share layout and
// dimensions) into this grid, charging data-movement cost.
func (g *Grid2D[T]) copyFrom(src *Grid2D[T]) {
	if src.NX != g.NX || src.NY != g.NY || src.L != g.L {
		panic("meshspectral: copyFrom requires identical shape and layout")
	}
	for gi := g.ix0; gi < g.ix1; gi++ {
		dst := g.loc.Row(gi - g.ix0 + g.H)
		from := src.loc.Row(gi - src.ix0 + src.H)
		copy(dst[g.H:g.H+g.iy1-g.iy0], from[src.H:src.H+src.iy1-src.iy0])
	}
	g.p.MemWords(float64((g.ix1-g.ix0)*(g.iy1-g.iy0)) * g.words)
}

// RowOp performs a row operation (§3.1) on the whole owned block: f is
// called once with the owned rows as one row-major nx×ny block aliasing
// local storage — nx owned rows (possibly none), ny = NY — and transforms
// it in place. The grid must be distributed by rows with halo 0, so the
// block is the local section. f charges its own work, through the grid's
// Proc.
func (g *Grid2D[T]) RowOp(f func(block []T, nx, ny int)) {
	checkBlockOp("row", "rows", g.L.PY == 1, g.L, g.H)
	f(g.loc.Data, g.ix1-g.ix0, g.NY)
}

// ColOp performs a column operation (§3.1) on the whole owned block: f is
// called once with the owned columns as one row-major nx×ny block aliasing
// local storage — nx = NX, ny owned columns (possibly none), so column k
// is every ny-th element from k — and transforms it in place. The grid
// must be distributed by columns with halo 0. f charges its own work;
// after it, ColOp charges the movement of copying every owned column out
// and back (2·NX·ny elements), which the machine model prices the
// operation with although nothing is copied.
func (g *Grid2D[T]) ColOp(f func(block []T, nx, ny int)) {
	checkBlockOp("column", "columns", g.L.PX == 1, g.L, g.H)
	f(g.loc.Data, g.NX, g.iy1-g.iy0)
	g.p.MemWords(2 * float64(g.NX*(g.iy1-g.iy0)) * g.words)
}

// checkBlockOp panics, naming the grid's layout and halo, unless a grid
// can hand its owned block to a row or column operation as it is stored:
// distributed by rows (columns) and with no ghost boundary.
func checkBlockOp(op, by string, distributed bool, l Layout, halo int) {
	if !distributed || halo != 0 {
		panic(fmt.Sprintf("meshspectral: %s operation requires a grid distributed by %s with halo 0, grid is %v with halo %d",
			op, by, l, halo))
	}
}

// elemWords estimates 8-byte words per element of type T for cost
// accounting. The probe escapes through BytesOf's interface parameter, so
// grids call this once, at construction, not on every charge.
func elemWords[T any]() float64 {
	var probe [1]T
	return float64(spmd.BytesOf(probe[:])) / 8
}

// LocalDense returns a copy of the owned block as a dense array (no
// ghosts) — handy for assembling results and for tests.
func (g *Grid2D[T]) LocalDense() *array.Dense2D[T] {
	out := array.New2D[T](g.ix1-g.ix0, g.iy1-g.iy0)
	for gi := g.ix0; gi < g.ix1; gi++ {
		src := g.loc.Row(gi - g.ix0 + g.H)
		copy(out.Row(gi-g.ix0), src[g.H:g.H+g.iy1-g.iy0])
	}
	return out
}

// neighbour returns the rank one step along the given axis (dx, dy ∈
// {-1,0,1}) honouring periodicity, or -1 when there is no neighbour.
func (g *Grid2D[T]) neighbour(dx, dy int) int {
	nx, ny := g.px+dx, g.py+dy
	if nx < 0 || nx >= g.L.PX {
		if !g.perX {
			return -1
		}
		nx = (nx + g.L.PX) % g.L.PX
	}
	if ny < 0 || ny >= g.L.PY {
		if !g.perY {
			return -1
		}
		ny = (ny + g.L.PY) % g.L.PY
	}
	return g.L.Rank(nx, ny)
}

// Halo buffers are kept per neighbour; these index Grid2D.spare (Grid3D
// uses the first two).
const (
	dirUp = iota
	dirDown
	dirLeft
	dirRight
)

// ExchangeBoundary refreshes the ghost boundary with neighbours' boundary
// values (Figure 8). Two phases — first along i, then along j including
// the freshly received i-ghost rows — so diagonal (corner) ghost cells are
// also correct, supporting 9-point stencils.
//
// In steady state the exchange allocates nothing. The grid keeps one spare
// buffer per neighbour: a send packs into the spare and gives it away (on
// sim and real a sent slice belongs to its receiver; dist and elastic have
// encoded it by the time Send returns), and the halo then received from
// that same neighbour — always the shape of the next send to it — is the
// next spare once it is unpacked. dist and elastic decode into fresh
// memory, which is kept just the same.
func (g *Grid2D[T]) ExchangeBoundary() {
	if g.H == 0 {
		return
	}
	H := g.H
	lnx, lny := g.ix1-g.ix0, g.iy1-g.iy0
	up, down := g.neighbour(-1, 0), g.neighbour(1, 0)
	g.sendHalo(dirUp, up, tagHaloXLo, H, 2*H, H, H+lny)
	g.sendHalo(dirDown, down, tagHaloXHi, lnx, lnx+H, H, H+lny)
	g.recvHalo(dirDown, down, tagHaloXLo, lnx+H, lnx+2*H, H, H+lny)
	g.recvHalo(dirUp, up, tagHaloXHi, 0, H, H, H+lny)
	// Full local height including i-ghost rows so corners are carried.
	left, right := g.neighbour(0, -1), g.neighbour(0, 1)
	g.sendHalo(dirLeft, left, tagHaloYLo, 0, g.loc.NX, H, 2*H)
	g.sendHalo(dirRight, right, tagHaloYHi, 0, g.loc.NX, lny, lny+H)
	g.recvHalo(dirRight, right, tagHaloYLo, 0, g.loc.NX, lny+H, lny+2*H)
	g.recvHalo(dirLeft, left, tagHaloYHi, 0, g.loc.NX, 0, H)
}

// takeSpare empties *spare and returns it with length n, or a fresh slice
// if it cannot hold n.
func takeSpare[T any](spare *[]T, n int) []T {
	buf := *spare
	*spare = nil
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// checkHalo panics unless a halo received from rank from has want
// elements: unpacking a short one would index past it, and a buffer of any
// other length is not the next send's.
func checkHalo(p spmd.Comm, from, tag, got, want int) {
	if got != want {
		panic(fmt.Sprintf("meshspectral: rank %d received a halo of %d elements from rank %d (tag %d), want %d",
			p.Rank(), got, from, tag, want))
	}
}

// sendHalo packs local rows [r0,r1) over local columns [c0,c1) into the
// spare buffer of neighbour dir and sends it to rank to (no neighbour if
// negative). A one-wide column is walked by stride.
func (g *Grid2D[T]) sendHalo(dir, to, tag, r0, r1, c0, c1 int) {
	if to < 0 {
		return
	}
	w, ny := c1-c0, g.loc.NY
	buf := takeSpare(&g.spare[dir], (r1-r0)*w)
	src := g.loc.Data[r0*ny+c0:]
	if w == 1 {
		for k := range buf {
			buf[k] = src[k*ny]
		}
	} else {
		for k, r := 0, 0; k < len(buf); k, r = k+w, r+ny {
			copy(buf[k:k+w], src[r:])
		}
	}
	g.p.MemWords(float64(len(buf)) * g.words)
	spmd.SendT(g.p, to, tag, buf)
}

// recvHalo receives neighbour dir's halo from rank from, writes it into
// local rows [r0,r1) over local columns [c0,c1) and keeps the buffer as
// that neighbour's spare.
func (g *Grid2D[T]) recvHalo(dir, from, tag, r0, r1, c0, c1 int) {
	if from < 0 {
		return
	}
	buf := spmd.Recv[[]T](g.p, from, tag)
	w, ny := c1-c0, g.loc.NY
	checkHalo(g.p, from, tag, len(buf), (r1-r0)*w)
	dst := g.loc.Data[r0*ny+c0:]
	if w == 1 {
		for k, v := range buf {
			dst[k*ny] = v
		}
	} else {
		for k, r := 0, 0; k < len(buf); k, r = k+w, r+ny {
			copy(dst[r:], buf[k:k+w])
		}
	}
	g.spare[dir] = buf
	g.p.MemWords(float64(len(buf)) * g.words)
}
