package meshspectral

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/array"
	"repro/internal/collective"
	"repro/internal/spmd"
)

// GatherGrid collects the distributed grid into a full dense array at
// root (nil elsewhere) — the §3.1 file-output pattern "operate on all
// data sequentially in a single process", with the implied all-to-one
// data redistribution (§3.3).
func GatherGrid[T any](g *Grid2D[T], root int) *array.Dense2D[T] {
	p := g.p
	mine := g.extract(g.ix0, g.ix1, g.iy0, g.iy1)
	p.MemWords(float64(len(mine.Data)) * g.words)
	blocks := collective.Gather(p, root, mine.wire())
	if p.Rank() != root {
		return nil
	}
	full := array.New2D[T](g.NX, g.NY)
	for _, w := range blocks {
		b := blockOf[T](w)
		w := b.Y1 - b.Y0
		k := 0
		for gi := b.X0; gi < b.X1; gi++ {
			copy(full.Row(gi)[b.Y0:b.Y1], b.Data[k:k+w])
			k += w
		}
	}
	return full
}

// ScatterGrid distributes a full dense array held at root into a new
// distributed grid — the file-input pattern. Only root's full argument is
// consulted; its dimensions are broadcast.
func ScatterGrid[T any](p spmd.Comm, full *array.Dense2D[T], root int, l Layout, halo int) *Grid2D[T] {
	var dims [2]int64
	if p.Rank() == root {
		dims = [2]int64{int64(full.NX), int64(full.NY)}
	}
	dims = collective.Broadcast(p, root, dims)
	nx, ny := int(dims[0]), int(dims[1])
	g := New2D[T](p, nx, ny, l, halo)
	var parts []spmd.Wrapped
	if p.Rank() == root {
		parts = make([]spmd.Wrapped, p.N())
		for r := 0; r < p.N(); r++ {
			rx, ry := l.Coords(r)
			x0, x1 := blockRange(nx, l.PX, rx)
			y0, y1 := blockRange(ny, l.PY, ry)
			data := make([]T, 0, (x1-x0)*(y1-y0))
			for gi := x0; gi < x1; gi++ {
				data = append(data, full.Row(gi)[y0:y1]...)
			}
			parts[r] = subBlock[T]{X0: x0, X1: x1, Y0: y0, Y1: y1, Data: data}.wire()
		}
	}
	mine := blockOf[T](collective.Scatter(p, root, parts))
	g.insert(mine)
	p.MemWords(float64(len(mine.Data)) * g.words)
	return g
}

// WriteBinary writes a float64 grid to w at root as a little-endian
// stream (two int64 dims then row-major values). Every process must call
// it; only root performs I/O.
func WriteBinary(g *Grid2D[float64], root int, w io.Writer) error {
	full := GatherGrid(g, root)
	if g.p.Rank() != root {
		return nil
	}
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, int64(full.NX)); err != nil {
		return fmt.Errorf("meshspectral: write header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(full.NY)); err != nil {
		return fmt.Errorf("meshspectral: write header: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, full.Data); err != nil {
		return fmt.Errorf("meshspectral: write data: %w", err)
	}
	return bw.Flush()
}

// ReadBinary reads a grid written by WriteBinary from r at root and
// scatters it. Every process must call it; only root reads.
func ReadBinary(p spmd.Comm, root int, r io.Reader, l Layout, halo int) (*Grid2D[float64], error) {
	var full *array.Dense2D[float64]
	ok := true
	var readErr error
	if p.Rank() == root {
		br := bufio.NewReader(r)
		var nx, ny int64
		if err := binary.Read(br, binary.LittleEndian, &nx); err != nil {
			readErr, ok = fmt.Errorf("meshspectral: read header: %w", err), false
		}
		if ok {
			if err := binary.Read(br, binary.LittleEndian, &ny); err != nil {
				readErr, ok = fmt.Errorf("meshspectral: read header: %w", err), false
			}
		}
		if ok && (nx < 0 || ny < 0 || nx*ny > 1<<30) {
			readErr, ok = fmt.Errorf("meshspectral: implausible grid dims %dx%d", nx, ny), false
		}
		if ok {
			full = array.New2D[float64](int(nx), int(ny))
			if err := binary.Read(br, binary.LittleEndian, full.Data); err != nil {
				readErr, ok = fmt.Errorf("meshspectral: read data: %w", err), false
			}
		}
	}
	ok = collective.Broadcast(p, root, ok)
	if !ok {
		if readErr == nil {
			readErr = fmt.Errorf("meshspectral: read failed at root")
		}
		return nil, readErr
	}
	return ScatterGrid(p, full, root, l, halo), nil
}

// WritePGM renders a float64 dense array to w as a binary 8-bit PGM
// image, mapping [lo, hi] to [0, 255] (values outside clamp). When
// lo >= hi the data range is used. This regenerates the paper's
// sample-output figures (19–21).
func WritePGM(a *array.Dense2D[float64], w io.Writer, lo, hi float64) error {
	if lo >= hi {
		lo, hi = math.Inf(1), math.Inf(-1)
		for _, v := range a.Data {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if lo >= hi {
			hi = lo + 1
		}
	}
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P5\n%d %d\n255\n", a.NY, a.NX); err != nil {
		return fmt.Errorf("meshspectral: pgm header: %w", err)
	}
	scale := 255 / (hi - lo)
	row := make([]byte, a.NY)
	for i := 0; i < a.NX; i++ {
		src := a.Row(i)
		for j, v := range src {
			x := (v - lo) * scale
			if x < 0 {
				x = 0
			}
			if x > 255 {
				x = 255
			}
			row[j] = byte(x)
		}
		if _, err := bw.Write(row); err != nil {
			return fmt.Errorf("meshspectral: pgm data: %w", err)
		}
	}
	return bw.Flush()
}
