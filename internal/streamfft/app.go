// Package streamfft is the streaming FFT-frame application: an
// unbounded sequence of n×n complex frames flows through a two-farm
// stream pipeline (row FFTs, then column FFTs) and comes out 2D-Fourier
// transformed, frame-exact against the sequential §3.5.1 algorithm. It
// is the paper's future-work composition — task parallelism between
// data-parallel FFT stages — on the stream archetype: bounded credit
// windows, element batching, and a worker farm per stage with
// deterministic order restoration.
package streamfft

import (
	"context"
	"fmt"
	"math"

	"repro/arch"
	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/stream"
)

// Edge is the fixed frame edge: every element of the stream is one
// Edge×Edge complex frame.
const Edge = 32

// Streaming knobs: frames per message and flow-control window, fixed so
// every backend runs the identical protocol.
const (
	frameBatch   = 4
	frameCredits = 4
)

func init() {
	arch.Register(arch.App{
		Name:        "streamfft",
		Desc:        "streaming 2D FFT frames through a two-farm pipeline (stream archetype)",
		DefaultSize: 256,
		Kind:        arch.KindStream,
		Run: func(ctx context.Context, s arch.Settings) (string, arch.Report, error) {
			return RunStream(ctx, s, nil)
		},
		RunStream: RunStream,
	})
}

// appendFrame appends frame f, row-major, to dst: element (i, j) is
// complex(sin(0.11·i + 0.007·f), cos(0.23·j − 0.003·f)), a deterministic
// smooth field drifting with the frame index. The real part depends only
// on the row and the imaginary part only on the column, so a frame costs
// Edge sines and Edge cosines, not Edge² of each. The source and the
// sequential oracle both generate frames here; the package test pins it
// point by point against the per-element formula.
func appendFrame(dst []complex128, f int64) []complex128 {
	var re, im [Edge]float64
	for k := 0; k < Edge; k++ {
		re[k] = math.Sin(0.11*float64(k) + 0.007*float64(f))
		im[k] = math.Cos(0.23*float64(k) - 0.003*float64(f))
	}
	for i := 0; i < Edge; i++ {
		for j := 0; j < Edge; j++ {
			dst = append(dst, complex(re[i], im[j]))
		}
	}
	return dst
}

// pipeline builds the stream pipeline for the given per-stage worker
// counts: source emits whole frames, stage "rowfft" transforms each
// frame's rows, stage "colfft" its columns — together exactly
// fft.TwoDSeq's arithmetic per frame, so outputs are bit-identical to
// the sequential algorithm.
func pipeline(workers []int) *stream.Pipeline[complex128] {
	width := Edge * Edge
	return &stream.Pipeline[complex128]{
		Name:  "streamfft",
		Width: width,
		Source: func(c arch.Comm, first int64, n int, dst []complex128) []complex128 {
			for f := first; f < first+int64(n); f++ {
				dst = appendFrame(dst, f)
			}
			return dst
		},
		Stages: []stream.Stage[complex128]{
			{
				Name:    "rowfft",
				Workers: workers[0],
				Fn: func(c arch.Comm, _ any, in []complex128) []complex128 {
					// A batch's rows, frame after frame, are one array.
					fft.TransformRows(c, in, len(in)/Edge, Edge, false)
					return in
				},
			},
			{
				Name:    "colfft",
				Workers: workers[1],
				Fn: func(c arch.Comm, _ any, in []complex128) []complex128 {
					for off := 0; off < len(in); off += width {
						fft.TransformCols(c, in[off:off+width], Edge, Edge, false)
						c.MemWords(float64(4 * Edge * Edge)) // fft.TwoDSeq's column copy charge
					}
					return in
				},
			},
		},
	}
}

// RunStream runs Size frames through the pipeline on the configured
// world, delivering progress windows to obs (nil for unobserved runs),
// and verifies every output frame bit-exact against fft.TwoDSeq. The
// world needs at least 4 processes: source, one worker per farm, sink.
func RunStream(ctx context.Context, s arch.Settings, obs arch.StreamObserver) (string, arch.Report, error) {
	frames := int64(s.Size)
	if s.Procs < 4 {
		return "", arch.Report{}, fmt.Errorf("streamfft: needs at least 4 processes (source, 2 farms, sink), got %d", s.Procs)
	}
	workers := stream.SplitWorkers(s.Procs-2, 2)
	pl := pipeline(workers)
	cfg := stream.Config{
		Elems:   frames,
		Batch:   frameBatch,
		Credits: frameCredits,
	}
	if obs != nil {
		cfg.Window = windowSize(frames)
		cfg.OnWindow = func(w stream.Window) {
			obs(arch.StreamWindow{Index: w.Index, Elems: w.Elems, Elapsed: w.Elapsed, Rate: w.Rate})
		}
	}

	prog := arch.SPMD(
		func(p *arch.Proc, _ int) [][]complex128 { return stream.Run(p, pl, cfg) },
		func(parts [][][]complex128) [][]complex128 { return parts[len(parts)-1] },
	)
	out, rep, err := arch.RunWith(ctx, prog, s, 0)
	if err != nil {
		return "", rep, err
	}

	if err := verify(out, s.Size); err != nil {
		return "", rep, err
	}
	return fmt.Sprintf("streamed %d %dx%d FFT frames through %d+%d workers (bit-exact vs sequential)",
		frames, Edge, Edge, workers[0], workers[1]), rep, nil
}

// verifyChunk is how many frames one oracle task checks with one
// scratch frame.
const verifyChunk = 64

// verify is the oracle: the sink's batches, in order, must hold frames
// whole frames, each bit-identical to fft.TwoDSeq of the generated
// frame. Frames are independent, so chunks of them are checked on every
// core; the error names the lowest failing frame, as a sequential scan
// would.
func verify(batches [][]complex128, frames int) error {
	const width = Edge * Edge
	out := make([][]complex128, 0, frames) // frame f, in whichever batch carried it
	for i, b := range batches {
		if len(b)%width != 0 {
			return fmt.Errorf("streamfft: sink batch %d holds %d scalars, not whole frames of %d", i, len(b), width)
		}
		for off := 0; off < len(b); off += width {
			out = append(out, b[off:off+width])
		}
	}
	if len(out) != frames {
		return fmt.Errorf("streamfft: sink collected %d frames, want %d", len(out), frames)
	}
	errs := make([]error, (frames+verifyChunk-1)/verifyChunk)
	core.ParFor(core.Concurrent, len(errs), func(c int) {
		want := array.New2D[complex128](Edge, Edge)
		for f := c * verifyChunk; f < min((c+1)*verifyChunk, frames); f++ {
			want.Data = appendFrame(want.Data[:0], int64(f))
			fft.TwoDSeq(core.Nop, want, false)
			got := out[f]
			for k := range got {
				if got[k] != want.Data[k] {
					errs[c] = fmt.Errorf("streamfft: frame %d scalar %d = %v, want %v (sequential)", f, k, got[k], want.Data[k])
					return
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// windowSize picks the progress-window size for an observed run: eight
// windows across the stream, at least one frame each.
func windowSize(frames int64) int64 {
	w := frames / 8
	if w < 1 {
		w = 1
	}
	return w
}
