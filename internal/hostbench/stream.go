package hostbench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
	"repro/internal/stream"
)

// StreamResult is one sustained-throughput measurement: a fixed element
// count pushed through a one-farm stream pipeline, reported as
// elements/sec and msgs/sec of wall clock. Unlike the latency micros
// (ns per round trip), these measure the streaming subsystem's steady
// cruise: how batch size amortizes per-message cost and how farm width
// scales it, on each substrate.
type StreamResult struct {
	Name        string  `json:"name"`
	Backend     string  `json:"backend"`
	Workers     int     `json:"workers"`
	Batch       int     `json:"batch"`
	Elems       int64   `json:"elems"`
	Seconds     float64 `json:"seconds"`
	ElemsPerSec float64 `json:"elems_per_sec"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	Msgs        int64   `json:"msgs"`
	Bytes       int64   `json:"bytes"`
}

// streamSpec is one cell of the throughput matrix.
type streamSpec struct {
	backend string
	workers int
	batch   int
	elems   int64
}

// streamSpecs is the committed BENCH_stream.json matrix: batch size ×
// farm width per backend. Element counts shrink where a cell is
// genuinely expensive (dist at batch 1 pays two ~40µs loopback hops per
// element); rates normalize across counts. The dist pair (batch 1 vs
// 64 at the same width) is the headline comparison: batching must beat
// batch-size-1 by roughly the per-message amortization factor.
func streamSpecs() []streamSpec {
	return []streamSpec{
		{"sim", 4, 64, 1 << 16},
		{"real", 1, 1, 1 << 14},
		{"real", 1, 64, 1 << 17},
		{"real", 4, 1, 1 << 14},
		{"real", 4, 64, 1 << 17},
		{"real", 4, 512, 1 << 17},
		{"dist", 1, 1, 1 << 12},
		{"dist", 1, 64, 1 << 17},
		{"dist", 4, 1, 1 << 12},
		{"dist", 4, 64, 1 << 17},
	}
}

// streamCredits is the flow-control window every throughput cell runs
// under: deep enough not to throttle a healthy pipeline, bounded so the
// measurement exercises the credit protocol it ships with.
const streamCredits = 8

// scalePipeline is the synthetic workload: scalar elements through one
// farm stage that doubles them — all fabric, no compute, so the
// measurement isolates the streaming machinery itself.
func scalePipeline(workers int) *stream.Pipeline[float64] {
	return &stream.Pipeline[float64]{
		Name:  "scale",
		Width: 1,
		Source: func(c spmd.Comm, first int64, n int, dst []float64) []float64 {
			for i := first; i < first+int64(n); i++ {
				dst = append(dst, float64(i))
			}
			return dst
		},
		Stages: []stream.Stage[float64]{{
			Name:    "scale",
			Workers: workers,
			Fn: func(c spmd.Comm, _ any, in []float64) []float64 {
				for k := range in {
					in[k] *= 2
				}
				return in
			},
		}},
	}
}

// streamRunner resolves a throughput cell's backend name.
func streamRunner(name string) (backend.Runner, error) {
	switch name {
	case "sim":
		return backend.Sim(), nil
	case "real":
		return backend.Real(), nil
	case "dist":
		return dist.New(), nil
	}
	return nil, fmt.Errorf("hostbench: unknown stream backend %q", name)
}

// CollectStream measures the sustained-throughput matrix and returns it
// as a Report (Streams only); its output is the committed
// BENCH_stream.json baseline. scale (0 < scale <= 1) shrinks the
// element counts for quick smoke runs; 0 means 1. Dist cells self-spawn
// workers, so the caller's binary must support it (archbench does).
func CollectStream(ctx context.Context, log io.Writer, scale float64) (*Report, error) {
	if log == nil {
		log = io.Discard
	}
	if scale <= 0 {
		scale = 1
	}
	model := machine.IBMSP()
	rep := &Report{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, sp := range streamSpecs() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := streamRunner(sp.backend)
		if err != nil {
			return nil, err
		}
		elems := int64(float64(sp.elems) * scale)
		if elems < 1 {
			elems = 1
		}
		pl := scalePipeline(sp.workers)
		cfg := stream.Config{Elems: elems, Batch: sp.batch, Credits: streamCredits}
		var got int
		start := time.Now()
		res, err := core.Run(ctx, r, pl.Procs(), model, func(p *spmd.Proc) {
			for _, b := range stream.Run(p, pl, cfg) {
				got += len(b)
			}
		})
		secs := time.Since(start).Seconds()
		name := fmt.Sprintf("Stream/%s/w%d/b%d", sp.backend, sp.workers, sp.batch)
		if err != nil {
			return nil, fmt.Errorf("hostbench: %s: %w", name, err)
		}
		if int64(got) != elems {
			return nil, fmt.Errorf("hostbench: %s: sink collected %d elems, want %d", name, got, elems)
		}
		sr := StreamResult{
			Name: name, Backend: sp.backend, Workers: sp.workers, Batch: sp.batch,
			Elems: elems, Seconds: secs,
			ElemsPerSec: float64(elems) / secs,
			MsgsPerSec:  float64(res.Msgs) / secs,
			Msgs:        res.Msgs, Bytes: res.Bytes,
		}
		fmt.Fprintf(log, "%-22s %12.0f elems/s %10.0f msgs/s %10d msgs %8.3fs\n",
			sr.Name, sr.ElemsPerSec, sr.MsgsPerSec, sr.Msgs, sr.Seconds)
		rep.Streams = append(rep.Streams, sr)
	}
	return rep, nil
}
