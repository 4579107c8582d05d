// Package streamhist is the windowed histogram-aggregation application:
// an unbounded stream of scalar samples flows through a scoring farm
// (sample → bucket) into a stateful single-worker windowing stage that
// emits one bins-wide histogram per fixed window of samples. It is the
// stream archetype's aggregation shape — a cardinality-changing,
// stateful stage downstream of an embarrassingly parallel one (the
// state access patterns of Danelutto et al.): the farm carries no
// state, the window stage sees the whole stream and so runs with one
// worker.
package streamhist

import (
	"context"
	"fmt"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/stream"
)

// Shape of the computation: histogram bins, samples aggregated per
// histogram, and the streaming knobs (samples per message, flow-control
// window) — fixed so every backend runs the identical protocol.
const (
	Bins          = 32
	SamplesPerWin = 1024
	sampleBatch   = 256
	sampleCredits = 4
)

func init() {
	arch.Register(arch.App{
		Name:        "streamhist",
		Desc:        "windowed histogram aggregation over a sample stream (stream archetype)",
		DefaultSize: 1 << 16,
		Kind:        arch.KindStream,
		Run: func(ctx context.Context, s arch.Settings) (string, arch.Report, error) {
			return RunStream(ctx, s, nil)
		},
		RunStream: RunStream,
	})
}

// sampleAt generates sample i: a splitmix64-style hash of the index
// mapped to [0, 1), identical on every rank and in the sequential
// oracle.
func sampleAt(i int64) float64 {
	z := uint64(i+1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// bucket scores one sample into its histogram bin.
func bucket(x float64) int {
	b := int(x * Bins)
	if b >= Bins { // x == 1.0 cannot happen, but guard the edge
		b = Bins - 1
	}
	return b
}

// winState is the windowing stage's private state: the histogram being
// accumulated and how many samples it has absorbed.
type winState struct {
	counts [Bins]float64
	seen   int
}

// pipeline builds the stream pipeline: source emits raw samples, the
// "score" farm maps each to its bucket index, the stateful "window"
// stage (one worker — it must see the whole stream) folds buckets into
// per-window histograms, emitting one Bins-wide element per
// SamplesPerWin samples and flushing the final partial window.
func pipeline(scoreWorkers int) *stream.Pipeline[float64] {
	return &stream.Pipeline[float64]{
		Name:  "streamhist",
		Width: 1,
		Source: func(c arch.Comm, first int64, n int, dst []float64) []float64 {
			for i := first; i < first+int64(n); i++ {
				dst = append(dst, sampleAt(i))
			}
			return dst
		},
		Stages: []stream.Stage[float64]{
			{
				Name:    "score",
				Workers: scoreWorkers,
				Fn: func(c arch.Comm, _ any, in []float64) []float64 {
					for k, x := range in {
						in[k] = float64(bucket(x))
					}
					c.Flops(float64(len(in)))
					return in
				},
			},
			{
				Name:     "window",
				OutWidth: Bins,
				State:    func(c arch.Comm) any { return &winState{} },
				Fn: func(c arch.Comm, state any, in []float64) []float64 {
					st := state.(*winState)
					var out []float64
					for _, b := range in {
						st.counts[int(b)]++
						st.seen++
						if st.seen == SamplesPerWin {
							out = append(out, st.counts[:]...)
							st.counts = [Bins]float64{}
							st.seen = 0
						}
					}
					c.MemWords(float64(len(in)))
					return out
				},
				Flush: func(c arch.Comm, state any) []float64 {
					st := state.(*winState)
					if st.seen == 0 {
						return nil
					}
					return st.counts[:]
				},
			},
		},
	}
}

// RunStream runs Size samples through the pipeline on the configured
// world, delivering progress windows to obs (nil for unobserved runs),
// and verifies every emitted histogram exactly against a sequential
// recount. The world needs at least 4 processes: source, one score
// worker, the window worker, sink.
func RunStream(ctx context.Context, s arch.Settings, obs arch.StreamObserver) (string, arch.Report, error) {
	samples := int64(s.Size)
	if s.Procs < 4 {
		return "", arch.Report{}, fmt.Errorf("streamhist: needs at least 4 processes (source, score, window, sink), got %d", s.Procs)
	}
	pl := pipeline(s.Procs - 3)
	cfg := stream.Config{
		Elems:   samples,
		Batch:   sampleBatch,
		Credits: sampleCredits,
	}
	if obs != nil {
		cfg.Window = histWindow(samples)
		cfg.OnWindow = func(w stream.Window) {
			obs(arch.StreamWindow{Index: w.Index, Elems: w.Elems, Elapsed: w.Elapsed, Rate: w.Rate})
		}
	}

	prog := arch.SPMD(
		func(p *arch.Proc, _ int) [][]float64 { return stream.Run(p, pl, cfg) },
		func(parts [][][]float64) [][]float64 { return parts[len(parts)-1] },
	)
	out, rep, err := arch.RunWith(ctx, prog, s, 0)
	if err != nil {
		return "", rep, err
	}

	if err := verify(out, samples); err != nil {
		return "", rep, err
	}
	return fmt.Sprintf("streamed %d samples into %d windowed %d-bin histograms through %d score workers (exact vs sequential)",
		samples, histCount(samples), Bins, s.Procs-3), rep, nil
}

// verifyChunk is how many windows one oracle task recounts.
const verifyChunk = 64

// histCount is the number of histograms samples samples make: one per
// window of SamplesPerWin, the last possibly partial.
func histCount(samples int64) int64 {
	return (samples + SamplesPerWin - 1) / SamplesPerWin
}

// verify is the oracle: the sink's batches, in order, must hold one
// exact histogram per window of SamplesPerWin samples (the last possibly
// partial). Windows are independent, so chunks of them are recounted on
// every core; the error names the lowest failing window, as a sequential
// recount would.
func verify(batches [][]float64, samples int64) error {
	hists := int(histCount(samples))
	out := make([][]float64, 0, hists) // histogram h, in whichever batch carried it
	for i, b := range batches {
		if len(b)%Bins != 0 {
			return fmt.Errorf("streamhist: sink batch %d holds %d scalars, not whole %d-bin histograms", i, len(b), Bins)
		}
		for off := 0; off < len(b); off += Bins {
			out = append(out, b[off:off+Bins])
		}
	}
	if len(out) != hists {
		return fmt.Errorf("streamhist: sink collected %d histograms, want %d", len(out), hists)
	}
	errs := make([]error, (hists+verifyChunk-1)/verifyChunk)
	core.ParFor(core.Concurrent, len(errs), func(c int) {
		for h := c * verifyChunk; h < min((c+1)*verifyChunk, hists); h++ {
			var want [Bins]float64
			first := int64(h) * SamplesPerWin
			for i := first; i < min(first+SamplesPerWin, samples); i++ {
				want[bucket(sampleAt(i))]++
			}
			got := out[h]
			for b := range got {
				if got[b] != want[b] {
					errs[c] = fmt.Errorf("streamhist: window %d bin %d = %g, want %g (sequential)", h, b, got[b], want[b])
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

// histWindow picks the progress-window size in output histograms for an
// observed run: eight windows across the stream, at least one each.
func histWindow(samples int64) int64 {
	w := histCount(samples) / 8
	if w < 1 {
		w = 1
	}
	return w
}
