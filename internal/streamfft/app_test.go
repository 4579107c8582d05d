package streamfft

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/array"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/fft"
)

// TestRunStreamVerifies: a small observed run on the simulator streams
// every frame through the farm pipeline, fires monotone progress
// windows, and passes the internal bit-exact check against the
// sequential 2D FFT.
func TestRunStreamVerifies(t *testing.T) {
	s := arch.NewSettings(arch.WithProcs(6), arch.WithSize(16))
	var wins []arch.StreamWindow
	sum, rep, err := RunStream(context.Background(), s, func(w arch.StreamWindow) {
		wins = append(wins, w)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum, "16 32x32 FFT frames") {
		t.Errorf("summary = %q", sum)
	}
	if rep.Msgs == 0 || rep.Bytes == 0 {
		t.Errorf("report carries no communication: %+v", rep)
	}
	if len(wins) == 0 {
		t.Fatal("no progress windows observed")
	}
	last := wins[len(wins)-1]
	if last.Elems != 16 {
		t.Errorf("final window reports %d elems, want 16", last.Elems)
	}
	for i := 1; i < len(wins); i++ {
		if wins[i].Index != wins[i-1].Index+1 || wins[i].Elems <= wins[i-1].Elems {
			t.Errorf("windows not monotone: %+v then %+v", wins[i-1], wins[i])
		}
	}
}

// TestRunStreamRejectsTinyWorlds: fewer than 4 processes cannot host
// source, two farms, and sink.
func TestRunStreamRejectsTinyWorlds(t *testing.T) {
	s := arch.NewSettings(arch.WithProcs(3), arch.WithSize(4))
	if _, _, err := RunStream(context.Background(), s, nil); err == nil {
		t.Fatal("RunStream with 3 procs succeeded, want error")
	}
}

// frameAt is the per-element definition of the stream's frames, kept as
// the reference appendFrame is pinned against: the source and the oracle
// share appendFrame, so this comparison is what keeps the oracle an
// independent check.
func frameAt(f int64, i, j int) complex128 {
	return complex(
		math.Sin(0.11*float64(i)+0.007*float64(f)),
		math.Cos(0.23*float64(j)-0.003*float64(f)),
	)
}

// TestAppendFrameMatchesFrameAt: the row/column-factored generator is
// bit-identical to the per-element formula at every point, including
// frame indices far past anything a run streams, and appends after
// whatever dst already holds.
func TestAppendFrameMatchesFrameAt(t *testing.T) {
	for _, f := range []int64{0, 1, 2047, 1 << 40} {
		got := appendFrame([]complex128{42}, f)
		if len(got) != 1+Edge*Edge || got[0] != 42 {
			t.Fatalf("frame %d: appendFrame returned %d scalars, first %v", f, len(got), got[0])
		}
		for i := 0; i < Edge; i++ {
			for j := 0; j < Edge; j++ {
				if g, w := got[1+i*Edge+j], frameAt(f, i, j); g != w {
					t.Fatalf("frame %d (%d, %d) = %v, want %v", f, i, j, g, w)
				}
			}
		}
	}
}

// TestVerifyReportsLowestFrame: the parallel oracle accepts a correct
// stream in batches of one to five frames, rejects one cut mid-frame or
// a batch short, and on one corrupted in two chunks names the lowest bad
// frame, as the sequential scan it replaced would.
func TestVerifyReportsLowestFrame(t *testing.T) {
	const frames, width = 701, Edge * Edge
	out := make([]complex128, 0, frames*width)
	for f := 0; f < frames; f++ {
		out = appendFrame(out, int64(f))
		frame := &array.Dense2D[complex128]{NX: Edge, NY: Edge, Data: out[f*width:]}
		fft.TwoDSeq(core.Nop, frame, false)
	}
	var batches [][]complex128
	for off, n := 0, 1; off < len(out); off, n = off+n*width, n%5+1 {
		batches = append(batches, out[off:min(off+n*width, len(out))])
	}
	if err := verify(batches, frames); err != nil {
		t.Fatalf("correct stream rejected: %v", err)
	}
	last := len(batches) - 1
	if err := verify(append(batches[:last:last], batches[last][:len(batches[last])-1]), frames); err == nil {
		t.Error("stream cut mid-frame accepted")
	}
	if err := verify(batches[:last], frames); err == nil {
		t.Error("short stream accepted")
	}
	out[700*width+5] += 1
	out[3*width+9] += 1
	err := verify(batches, frames)
	if err == nil || !strings.Contains(err.Error(), "frame 3 scalar 9 ") {
		t.Errorf("verify = %v, want frame 3 scalar 9 reported", err)
	}
}

// BenchmarkStreamFFT is the dev-loop number for the bench's stream part
// A at an eighth of its size: streamfft@256 on real, 4 ranks, oracle
// included, with the bytes a run allocates beside its 4 MiB of output.
func BenchmarkStreamFFT(b *testing.B) {
	s := arch.NewSettings(arch.WithProcs(4), arch.WithSize(256), arch.WithBackend(backend.Real()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunStream(context.Background(), s, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
}
