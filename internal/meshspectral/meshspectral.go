// Package meshspectral implements the paper's mesh-spectral archetype
// (§3): computations on N-dimensional grids structured as sequences of
// grid operations, row/column operations, reductions, and file I/O, with
// global variables kept copy-consistent across processes.
//
// The archetype's communication operations (§3.3) are provided exactly as
// the paper enumerates them:
//
//   - grid redistribution (rows↔columns↔blocks) — Grid2D.Redistribute;
//   - exchange of boundary values via ghost boundaries —
//     Grid2D.ExchangeBoundary / Grid3D.ExchangeBoundary (Figure 8);
//   - broadcast of global data — Global.SetBcast;
//   - reductions (recursive doubling, Figure 9) — Global.SetReduced and
//     package collective;
//   - file input/output — GatherGrid / ScatterGrid plus encoding helpers.
//
// Data-distribution preconditions are enforced at runtime: a row operation
// panics unless the grid is distributed by rows, matching the paper's
// "row operations require that data be distributed by rows" (§3.2); the
// redistribution operation is what satisfies the precondition, as in the
// 2D FFT example (Figures 10–11).
//
// Grid operations and scans take the whole block: Grid2D.View hands out
// the local storage behind a rectangle and its ring (one point wide when
// the grid has a ghost boundary), and Grid3D.View that of a run of planes
// and theirs, with the strides that locate a point in it. A view aliases
// storage and is range-checked once; the application walks its rows by
// offset, calls its row kernel on slices cut from the views, and charges
// its flops once, after the rows. At and Set remain for the cold paths:
// physical-boundary ghost fills, assembly and tests.
package meshspectral

import (
	"fmt"

	"repro/internal/collective"
)

// Layout describes how a 2D grid is distributed over PX×PY processes:
// the i (row-index) dimension is split into PX blocks and the j dimension
// into PY blocks. Process rank r holds block (r/PY, r%PY).
type Layout struct {
	PX, PY int
}

// Rows returns the distribution-by-rows layout over n processes (each
// process owns full rows — the precondition for row operations).
func Rows(n int) Layout { return Layout{PX: n, PY: 1} }

// Cols returns the distribution-by-columns layout over n processes (each
// process owns full columns — the precondition for column operations).
func Cols(n int) Layout { return Layout{PX: 1, PY: n} }

// Blocks returns a general block layout over px×py processes.
func Blocks(px, py int) Layout { return Layout{PX: px, PY: py} }

// NearSquare returns the most nearly square px×py factorization of n,
// the "generic block distribution" the Poisson example adjusts for
// performance (§3.6.3).
func NearSquare(n int) Layout {
	best := Layout{PX: 1, PY: n}
	for px := 1; px*px <= n; px++ {
		if n%px == 0 {
			best = Layout{PX: px, PY: n / px}
		}
	}
	return best
}

// Validate reports an error unless the layout covers exactly n processes.
func (l Layout) Validate(n int) error {
	if l.PX <= 0 || l.PY <= 0 || l.PX*l.PY != n {
		return fmt.Errorf("meshspectral: layout %dx%d does not match %d processes", l.PX, l.PY, n)
	}
	return nil
}

// Coords returns the (px, py) block coordinates of rank r.
func (l Layout) Coords(r int) (int, int) { return r / l.PY, r % l.PY }

// Rank returns the rank owning block (px, py).
func (l Layout) Rank(px, py int) int { return px*l.PY + py }

// blockRange splits [0, n) into parts blocks and returns block b's
// half-open range (balanced: sizes differ by at most one).
func blockRange(n, parts, b int) (int, int) {
	return b * n / parts, (b + 1) * n / parts
}

// String returns "PXxPY".
func (l Layout) String() string { return fmt.Sprintf("%dx%d", l.PX, l.PY) }

// Tag space used by this package.
const (
	tagHaloXLo = collective.TagUser + 40 + iota
	tagHaloXHi
	tagHaloYLo
	tagHaloYHi
	tagRedist
	tagGatherGrid
	tagScatterGrid
	tagHalo3Lo
	tagHalo3Hi
)
