package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/arch"
	"repro/internal/array"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/fft"
	"repro/internal/machine"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

// Probes time one public call of one layer from outside, in the traced
// pass of the workload whose end-to-end number the layer should move.
// Every probe runs probeBatches batches and reports the median batch, so
// one descheduled batch does not move the number.
const probeBatches = 5

// perCallNs times fn in batches of calls and returns the median ns per call.
func perCallNs(calls int, fn func()) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn()
		}
		per[b] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}
	return median(per)
}

// inWorld runs body on an n-rank world of the named registry backend and
// returns the seconds rank 0 spent in timed(), which the body calls around
// the part to measure. World start and finish are outside that interval.
func inWorld(backendName string, n int, body func(p *spmd.Proc, timed func(func()))) (float64, error) {
	be, err := arch.ResolveBackend(backendName)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	var sec float64
	_, err = core.Run(ctx, be, n, machine.IBMSP(), func(p *spmd.Proc) {
		body(p, func(f func()) {
			start := time.Now()
			f()
			if p.Rank() == 0 {
				sec = time.Since(start).Seconds()
			}
		})
	})
	return sec, err
}

// pingPong exchanges msg between two ranks trips times and returns the
// seconds per one-way message. One untimed trip first lets a remote
// substrate finish connecting.
func pingPong[T any](backendName string, msg T, trips int) (float64, error) {
	exchange := func(p *spmd.Proc, n int) {
		peer := 1 - p.Rank()
		for i := 0; i < n; i++ {
			if p.Rank() == 0 {
				spmd.SendT(p, peer, 1, msg)
				spmd.Recv[T](p, peer, 1)
			} else {
				spmd.Recv[T](p, peer, 1)
				spmd.SendT(p, peer, 1, msg)
			}
		}
	}
	per := make([]float64, probeBatches)
	for b := range per {
		sec, err := inWorld(backendName, 2, func(p *spmd.Proc, timed func(func())) {
			exchange(p, 1)
			timed(func() { exchange(p, trips) })
		})
		if err != nil {
			return 0, fmt.Errorf("ping-pong on %s: %w", backendName, err)
		}
		per[b] = sec / float64(2*trips)
	}
	return median(per), nil
}

// emptyWorld returns the median seconds of an empty-body P=2 world: start,
// handshake and finish of the substrate alone.
func emptyWorld(backendName string, worlds int) (float64, error) {
	be, err := arch.ResolveBackend(backendName)
	if err != nil {
		return 0, err
	}
	per := make([]float64, worlds)
	for i := range per {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		start := time.Now()
		_, err := core.Run(ctx, be, P2, machine.IBMSP(), func(p *spmd.Proc) {})
		per[i] = time.Since(start).Seconds()
		cancel()
		if err != nil {
			return 0, fmt.Errorf("empty world on %s: %w", backendName, err)
		}
	}
	return median(per), nil
}

const (
	mib        = 1 << 20
	bulkInt32s = mib / 4
)

// runProbes runs the probes assigned to w and emits their metrics. Each
// probe batch is one span under the workload span.
func runProbes(cfg config, w workload, res *results, tr *tracer, parent int, roundMs float64, plain []roundResult) error {
	calls := cfg.probeCalls
	probe := func(name string, fn func() error) error {
		s := tr.begin("probe "+name, parent, 0, 0)
		defer tr.end(s)
		return fn()
	}
	small := []float64{1}
	bulk := make([]int32, bulkInt32s)
	for i := range bulk {
		bulk[i] = int32(i)
	}

	switch w.name {
	case "batch-compute":
		return probe("kernels+bulk", func() error {
			data := sortapp.RandomInts(1<<20, cfg.seed)
			scratch := make([]int32, len(data))
			sorts := max(calls/250, 2)
			ns := perCallNs(sorts, func() {
				copy(scratch, data)
				sortapp.MergeSort(core.Nop, scratch)
			})
			res.emit("sortapp.mergesort_melem_s", float64(len(data))/ns*1e3, sorts*probeBatches)

			grid := array.New2D[complex128](512, 512)
			grid.Fill(func(i, j int) complex128 { return complex(float64(i^j), 0) })
			ffts := max(calls/100, 3)
			res.emit("fft.twod_512_ms", perCallNs(ffts, func() { fft.TwoDSeq(core.Nop, grid, false) })/1e6, ffts*probeBatches)

			sec, err := pingPong("real", bulk, max(calls/5, 10))
			if err != nil {
				return err
			}
			res.emit("backend.real_bulk_gb_s", mib/sec/1e9, probeBatches)

			const block = 256 << 10 / 4 // int32s in a 256 KiB block
			exchanges := max(calls/5, 10)
			sec, err = inWorld("real", P2, func(p *spmd.Proc, timed func(func())) {
				parts := [][]int32{make([]int32, block), make([]int32, block)}
				timed(func() {
					for i := 0; i < exchanges; i++ {
						collective.AllToAll(p, parts)
					}
				})
			})
			if err != nil {
				return err
			}
			res.emit("collective.alltoall_mb_s", float64(exchanges)*4*block/1e6/sec, exchanges)

			sec, err = emptyWorld("real", calls)
			if err != nil {
				return err
			}
			res.emit("backend.real_world_us", sec*1e6, calls)
			return nil
		})

	case "batch-comm":
		return probe("fabric", func() error {
			var boxed any = small
			res.emit("spmd.bytesof_ns", perCallNs(calls*100, func() { spmd.BytesOf(boxed) }), calls*100*probeBatches)

			sec, err := pingPong("real", small, calls)
			if err != nil {
				return err
			}
			res.emit("backend.real_oneway_us", sec*1e6, 2*calls*probeBatches)

			sec, err = inWorld("real", P2, func(p *spmd.Proc, timed func(func())) {
				timed(func() {
					for i := 0; i < calls; i++ {
						collective.AllReduce(p, float64(p.Rank()), math.Max)
					}
				})
			})
			if err != nil {
				return err
			}
			res.emit("collective.allreduce_us", sec/float64(calls)*1e6, calls)
			return nil
		})

	case "remote":
		if err := probe("codec", func() error { return probeCodec(res, calls, small, bulk) }); err != nil {
			return err
		}
		return probe("substrates", func() error { return probeRemote(res, w, calls, small, bulk, roundMs, plain) })

	case "serve-mixed":
		return probe("sim substrate", func() error {
			sec, err := pingPong("sim", small, calls)
			if err != nil {
				return err
			}
			res.emit("backend.sim_oneway_us", sec*1e6, 2*calls*probeBatches)
			sec, err = emptyWorld("sim", calls)
			if err != nil {
				return err
			}
			res.emit("backend.sim_world_us", sec*1e6, calls)
			return nil
		})
	}
	return nil
}

// probeCodec times the wire codec on the two payload shapes the remote
// workload sends: one float64 (poisson) and a megabyte of int32 (mergesort).
func probeCodec(res *results, calls int, small []float64, bulk []int32) error {
	var encErr, decErr error
	buf, err := spmd.AppendPayload(nil, small)
	if err != nil {
		return err
	}
	n := calls * 100
	res.emit("spmd.encode_small_ns", perCallNs(n, func() { buf, encErr = spmd.AppendPayload(buf[:0], small) }), n*probeBatches)
	res.emit("spmd.decode_small_ns", perCallNs(n, func() { _, _, decErr = spmd.DecodePayload(buf) }), n*probeBatches)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		buf, encErr = spmd.AppendPayload(buf[:0], small)
		_, _, decErr = spmd.DecodePayload(buf)
	}
	runtime.ReadMemStats(&after)
	res.emit("spmd.codec_allocs_small", math.Round(float64(after.Mallocs-before.Mallocs)/float64(n)), n)

	big, err := spmd.AppendPayload(nil, bulk)
	if err != nil {
		return err
	}
	n = max(calls/10, 5)
	res.emit("spmd.encode_bulk_mb_s", mib/perCallNs(n, func() { big, encErr = spmd.AppendPayload(big[:0], bulk) })*1e3, n*probeBatches)
	res.emit("spmd.decode_bulk_mb_s", mib/perCallNs(n, func() { _, _, decErr = spmd.DecodePayload(big) })*1e3, n*probeBatches)
	if encErr != nil {
		return encErr
	}
	return decErr
}

// probeRemote measures the remote substrates and then accounts for the
// remote round with them: the first layer-by-layer breakdown of an
// end-to-end number in this repository.
func probeRemote(res *results, w workload, calls int, small []float64, bulk []int32, roundMs float64, plain []roundResult) error {
	oneway, err := pingPong("dist", small, calls)
	if err != nil {
		return err
	}
	res.emit("dist.oneway_us", oneway*1e6, 2*calls*probeBatches)
	bulkSec, err := pingPong("dist", bulk, max(calls/50, 5))
	if err != nil {
		return err
	}
	res.emit("dist.bulk_mb_s", mib/bulkSec/1e6, probeBatches)
	worlds := max(calls/50, 3)
	start, err := emptyWorld("dist", worlds)
	if err != nil {
		return err
	}
	res.emit("dist.world_start_ms", ms(start), worlds)

	// Elastic is probed beside dist for the PR that collapses the two; if
	// that PR removes the registry name, its metrics read 0.
	if _, err := arch.ResolveBackend("elastic"); err != nil {
		fmt.Printf("# elastic probes omitted: %v\n", err)
	} else {
		sec, err := pingPong("elastic", small, calls)
		if err != nil {
			return err
		}
		res.emit("elastic.oneway_us", sec*1e6, 2*calls*probeBatches)
		if sec, err = emptyWorld("elastic", worlds); err != nil {
			return err
		}
		res.emit("elastic.world_start_ms", ms(sec), worlds)
	}

	// The same two programs on real at P=2.
	realOps := make([]op, len(w.ops))
	for i, o := range w.ops {
		o.backend = "real"
		realOps[i] = o
	}
	refs, err := references(realOps)
	if err != nil {
		return err
	}
	realRuns := max(calls/100, 3)
	realMs := make([]float64, realRuns)
	for i := range realMs {
		for _, o := range realOps {
			r := runOp(o, refs[o], nil, nil, -1, -1)
			if r.failed {
				return fmt.Errorf("real run of %s failed", o)
			}
			realMs[i] += ms(r.wall)
		}
	}
	realRound := median(realMs)
	res.emit("dist.real_ms", realRound, realRuns)
	res.emit("dist.tax_x", roundMs/realRound, len(plain))

	var msgs, bytes float64
	for _, or := range plain[0].ops {
		msgs += float64(or.rep.Msgs)
		bytes += float64(or.rep.Bytes)
	}
	startMs := float64(len(w.ops)) * ms(start)
	latencyMs := msgs * ms(oneway)
	bulkMs := bytes / mib * ms(bulkSec)
	model := startMs + latencyMs + bulkMs + realRound
	residual := (roundMs - model) / roundMs * 100
	res.emit("dist.model_residual_pct", residual, 1)
	fmt.Fprintf(os.Stdout, "# remote round %.1f ms = %d world starts %.1f + %.0f msgs x %.1f us = %.1f + %.2f MB at %.0f MB/s = %.1f + real %.1f + residual %.1f (%.0f%%)\n",
		roundMs, len(w.ops), startMs, msgs, oneway*1e6, latencyMs, bytes/1e6, mib/bulkSec/1e6, bulkMs, realRound, roundMs-model, residual)
	return nil
}
