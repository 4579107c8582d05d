package meshspectral

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/collective"
	"repro/internal/spmd"
)

// Grid3D is one process's slab of a distributed NX×NY×NZ grid. The grid
// is decomposed along the first (i) dimension into N contiguous slabs —
// the decomposition used by the paper's three-dimensional mesh archetype
// applications (the electromagnetics code of §3.7.2). Ghost planes of
// width H sit on both sides of the slab.
type Grid3D[T any] struct {
	p          spmd.Comm
	NX, NY, NZ int
	H          int
	perX       bool

	ix0, ix1 int
	loc      *array.Dense3D[T]
	words    float64 // elemWords[T](), computed once
	spare    [2][]T  // a halo buffer per neighbour: see Grid2D.ExchangeBoundary
}

// New3D creates this process's slab of an NX×NY×NZ grid with ghost width
// halo.
func New3D[T any](p spmd.Comm, nx, ny, nz, halo int) *Grid3D[T] {
	if halo < 0 {
		panic("meshspectral: negative halo")
	}
	g := &Grid3D[T]{p: p, NX: nx, NY: ny, NZ: nz, H: halo, words: elemWords[T]()}
	g.ix0, g.ix1 = blockRange(nx, p.N(), p.Rank())
	g.loc = array.New3D[T](g.ix1-g.ix0+2*halo, ny, nz)
	return g
}

// SetPeriodic configures periodic wrap-around along the decomposed
// dimension.
func (g *Grid3D[T]) SetPeriodic(x bool) { g.perX = x }

// Proc returns the owning process.
func (g *Grid3D[T]) Proc() spmd.Comm { return g.p }

// OwnedX returns the owned global i-range [lo, hi).
func (g *Grid3D[T]) OwnedX() (int, int) { return g.ix0, g.ix1 }

// InteriorX returns the intersection of the owned i-range with the global
// interior [1, NX-1).
func (g *Grid3D[T]) InteriorX() (int, int) {
	lo, hi := g.ix0, g.ix1
	if lo < 1 {
		lo = 1
	}
	if hi > g.NX-1 {
		hi = g.NX - 1
	}
	return lo, hi
}

func (g *Grid3D[T]) check(gi, gj, gk int) int {
	li := gi - g.ix0 + g.H
	if li < 0 || li >= g.loc.NX || gj < 0 || gj >= g.NY || gk < 0 || gk >= g.NZ {
		panic(fmt.Sprintf("meshspectral: access (%d,%d,%d) outside slab [%d,%d) (halo %d) of %dx%dx%d",
			gi, gj, gk, g.ix0, g.ix1, g.H, g.NX, g.NY, g.NZ))
	}
	return li
}

// At returns the value at global point (gi, gj, gk); gi may reach into
// the ghost planes. Like Grid2D's, At and Set are the cold-path accessors;
// sweeps and scans use View.
func (g *Grid3D[T]) At(gi, gj, gk int) T {
	return g.loc.At(g.check(gi, gj, gk), gj, gk)
}

// Set assigns the value at global point (gi, gj, gk).
func (g *Grid3D[T]) Set(gi, gj, gk int, v T) {
	g.loc.Set(g.check(gi, gj, gk), gj, gk, v)
}

// View returns the local storage of global planes [x0, x1) and their
// ring, for a sweep or a scan that takes them at once. The ring is one
// plane each side on a grid with ghost planes and empty on one without;
// j and k are not decomposed and have no ghosts. Point (gi, gj, gk) of the
// planes or their ring is data[off+(gi-x0)*plane+gj*row+gk]. Writes
// through data are writes to the grid. The planes and their ring are
// checked once, here; the ring may reach into the ghost planes.
func (g *Grid3D[T]) View(x0, x1 int) (data []T, plane, row, off int) {
	w := min(g.H, 1)
	l0, l1 := x0-g.ix0+g.H-w, x1-g.ix0+g.H+w
	if x0 > x1 || l0 < 0 || l1 > g.loc.NX {
		panic(fmt.Sprintf("meshspectral: view of planes [%d,%d) with their ring outside slab [%d,%d) (halo %d) of %dx%dx%d",
			x0, x1, g.ix0, g.ix1, g.H, g.NX, g.NY, g.NZ))
	}
	plane = g.NY * g.NZ
	return g.loc.Data[l0*plane : l1*plane : l1*plane], plane, g.NZ, w * plane
}

// Fill sets every owned point to f(gi, gj, gk) (initialization; not
// charged).
func (g *Grid3D[T]) Fill(f func(gi, gj, gk int) T) {
	for gi := g.ix0; gi < g.ix1; gi++ {
		for j := 0; j < g.NY; j++ {
			for k := 0; k < g.NZ; k++ {
				g.loc.Set(gi-g.ix0+g.H, j, k, f(gi, j, k))
			}
		}
	}
}

// ExchangeBoundary refreshes the ghost planes with the neighbouring
// slabs' boundary planes. Halo buffers are reused under Grid2D's rule.
func (g *Grid3D[T]) ExchangeBoundary() {
	if g.H == 0 {
		return
	}
	n := g.p.N()
	up, down := g.p.Rank()-1, g.p.Rank()+1
	if g.perX {
		up, down = (up+n)%n, down%n
	} else if down >= n {
		down = -1
	}
	lnx := g.ix1 - g.ix0
	g.sendHalo(dirUp, up, tagHalo3Lo, g.H)
	g.sendHalo(dirDown, down, tagHalo3Hi, lnx)
	g.recvHalo(dirDown, down, tagHalo3Lo, lnx+g.H)
	g.recvHalo(dirUp, up, tagHalo3Hi, 0)
}

// sendHalo sends local planes [l0, l0+H), contiguous in storage, to rank
// to (no neighbour if negative) in the spare buffer of neighbour dir.
func (g *Grid3D[T]) sendHalo(dir, to, tag, l0 int) {
	if to < 0 {
		return
	}
	plane := g.NY * g.NZ
	buf := takeSpare(&g.spare[dir], g.H*plane)
	copy(buf, g.loc.Data[l0*plane:])
	g.p.MemWords(float64(len(buf)) * g.words)
	spmd.SendT(g.p, to, tag, buf)
}

// recvHalo receives neighbour dir's halo from rank from into local planes
// [l0, l0+H) and keeps the buffer as that neighbour's spare.
func (g *Grid3D[T]) recvHalo(dir, from, tag, l0 int) {
	if from < 0 {
		return
	}
	buf := spmd.Recv[[]T](g.p, from, tag)
	plane := g.NY * g.NZ
	checkHalo(g.p, from, tag, len(buf), g.H*plane)
	copy(g.loc.Data[l0*plane:], buf)
	g.spare[dir] = buf
	g.p.MemWords(float64(len(buf)) * g.words)
}

// GatherGrid3 collects the slabs into a full dense array at root (nil
// elsewhere).
func GatherGrid3[T any](g *Grid3D[T], root int) *array.Dense3D[T] {
	p := g.p
	mine := make([]T, 0, (g.ix1-g.ix0)*g.NY*g.NZ)
	for gi := g.ix0; gi < g.ix1; gi++ {
		mine = append(mine, g.loc.Plane(gi-g.ix0+g.H)...)
	}
	p.MemWords(float64(len(mine)) * g.words)
	// A slab travels as its range of i-planes and their data.
	slabs := collective.Gather(p, root, spmd.Wrapped{K: 2, Head: [4]int64{int64(g.ix0), int64(g.ix1)}, Body: mine})
	if p.Rank() != root {
		return nil
	}
	full := array.New3D[T](g.NX, g.NY, g.NZ)
	plane := g.NY * g.NZ
	for _, s := range slabs {
		copy(full.Data[int(s.Head[0])*plane:int(s.Head[1])*plane], s.Body.([]T))
	}
	return full
}
