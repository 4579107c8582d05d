package streamfft

import (
	"context"
	"testing"

	"repro/arch"
	"repro/internal/golden"
	"repro/internal/stream"
)

// goldenSink is the golden.Digest of the sink's output for 24 frames,
// its batches in order, captured at commit 6dfb2a2, before the FFT
// kernels took two butterfly levels per sweep. The oracle in verify runs the same kernels as the
// pipeline, so a wrong but deterministic kernel would pass it; this
// digest would not.
const goldenSink = "700be96edb7e0254226abdbd472247881fd0a26cb359dc6c9d067f98a0482a02"

// TestSinkOutputGolden: 24 frames through the pipeline come out with the
// captured bits on the simulator at P=4 and on real at P=5.
func TestSinkOutputGolden(t *testing.T) {
	const frames = 24
	for _, c := range []struct {
		backend string
		procs   int
	}{{"sim", 4}, {"real", 5}} {
		b, err := arch.ResolveBackend(c.backend)
		if err != nil {
			t.Fatal(err)
		}
		pl := pipeline(stream.SplitWorkers(c.procs-2, 2))
		cfg := stream.Config{Elems: frames, Batch: frameBatch, Credits: frameCredits}
		prog := arch.SPMD(
			func(p *arch.Proc, _ int) [][]complex128 { return stream.Run(p, pl, cfg) },
			func(parts [][][]complex128) [][]complex128 { return parts[len(parts)-1] },
		)
		s := arch.NewSettings(arch.WithBackend(b), arch.WithProcs(c.procs))
		out, _, err := arch.RunWith(context.Background(), prog, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		scalars := 0
		for _, batch := range out {
			scalars += len(batch)
		}
		if scalars != frames*Edge*Edge {
			t.Fatalf("%s P=%d: sink collected %d scalars, want %d", c.backend, c.procs, scalars, frames*Edge*Edge)
		}
		if d := golden.Digest(out...); d != goldenSink {
			t.Errorf("%s P=%d: digest %s, want %s", c.backend, c.procs, d, goldenSink)
		}
	}
}
