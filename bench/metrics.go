package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Metric kinds. A gated metric is in BENCHMARK.json's end_to_end list:
// every workload's untraced run reports it and the driver bounds its
// regression. An e2e metric is a user-visible number that only some
// workloads have (the names ISSUE 12 fixed); the untraced run prints it
// and -aa checks it, but the driver's result line cannot carry it,
// because that line must hold the same metrics for every workload. A
// layer metric comes from the traced pass.
const (
	kindGated = "gated"
	kindE2E   = "e2e"
	kindLayer = "layer"
)

// def describes one metric: the single table the code, -list, the smoke
// test and BENCHMARK.json agree on.
type def struct {
	Name   string
	Unit   string
	Higher bool    // better when higher
	Kind   string  // kindGated, kindE2E or kindLayer
	Bound  float64 // relative regression bound (gated and e2e)
	What   string  // what is measured, and which e2e metric it should move
}

func (d def) better() string {
	if d.Higher {
		return "higher"
	}
	return "lower"
}

// timeBound is the relative regression bound of every end-to-end metric,
// the largest BENCHMARK.json allows. It is evidence, not a guess: the
// 2-core box the benchmark was written on only ever adds time — it drifts
// by several percent over minutes and bursts for seconds — and over ten
// seeds the quartile spread of a round's median reached 21 % of itself and
// that of its lower decile 14 %. The gated times are therefore lower
// deciles; the medians and upper quartiles a user sees on a busy host are
// printed beside them.
const timeBound = 0.25

// defs lists every metric the benchmark can emit, in print order.
var defs = []def{
	// Gated: same names on every workload. part A and part B are the two
	// halves of a round that pull in different directions; see workloads.
	{"setup_s", "s", false, kindGated, timeBound, "child start to first timed op: references on sim, server start, one warm-up round; median of the set-up repeats"},
	{"round_ms_p10", "ms", false, kindGated, timeBound, "lower decile of the wall time of one round"},
	{"part_a_ms_p10", "ms", false, kindGated, timeBound, "lower decile over rounds of the round's part A time (see -list)"},
	{"part_b_ms_p10", "ms", false, kindGated, timeBound, "lower decile over rounds of the round's part B time (see -list)"},

	// End-to-end numbers under the names ISSUE 12 fixed: the round's median
	// and upper quartile on every workload, the rest on the workloads that
	// have them.
	{"round_ms_p50", "ms", false, kindE2E, timeBound, "median wall time of one round"},
	{"round_ms_p75", "ms", false, kindE2E, timeBound, "75th percentile of round wall time"},
	{"speedup_p2", "ratio", true, kindE2E, timeBound, "median over rounds of sum T(P=1) / sum T(P=2): the paper's headline on real cores"},
	{"frames_per_s", "1/s", true, kindE2E, timeBound, "median over rounds of streamfft frames / wall"},
	{"samples_per_s", "1/s", true, kindE2E, timeBound, "median over rounds of streamhist samples / wall"},
	{"req_per_s", "1/s", true, kindE2E, timeBound, "completed requests / timed wall, restart gap excluded"},
	{"warm_ms_p50", "ms", false, kindE2E, timeBound, "POST send to terminal status, warm class"},
	{"warm_ms_p99", "ms", false, kindE2E, timeBound, "warm class tail"},
	{"cold_ms_p50", "ms", false, kindE2E, timeBound, "POST send to terminal SSE event, cold class"},
	{"cold_ms_p90", "ms", false, kindE2E, timeBound, "cold class tail"},
	{"fail_ratio", "ratio", false, kindE2E, 0, "(errors + timeouts + reference mismatches + 429/503) / ops attempted"},

	// Mirrors of the workload-specific numbers, from the untraced rounds of
	// the traced pass, so the driver's per-layer record carries them too.
	{"e2e.round_ms_p50", "ms", false, kindLayer, 0, "round_ms_p50 as seen by the traced pass's untraced rounds"},
	{"e2e.round_ms_p75", "ms", false, kindLayer, 0, "round_ms_p75, same"},
	{"e2e.speedup_p2", "ratio", true, kindLayer, 0, "speedup_p2, same"},
	{"e2e.frames_per_s", "1/s", true, kindLayer, 0, "frames_per_s, same"},
	{"e2e.samples_per_s", "1/s", true, kindLayer, 0, "samples_per_s, same"},
	{"e2e.req_per_s", "1/s", true, kindLayer, 0, "req_per_s, same"},
	{"e2e.warm_ms_p99", "ms", false, kindLayer, 0, "warm_ms_p99, same"},
	{"e2e.cold_ms_p90", "ms", false, kindLayer, 0, "cold_ms_p90, same"},

	{"arch.outside_world_ms", "ms", false, kindLayer, 0, "per round sum(RunApp wall - Report.Makespan): input generation, verification, facade; moves round_ms_p50 on batch workloads"},
	{"arch.canonical_us", "us", false, kindLayer, 0, "Spec.CanonicalJSON + rescache.Key; moves warm_ms_p50"},
	{"arch.runspec_floor_us", "us", false, kindLayer, 0, "arch.RunSpec of mergesort size 2, P=1, sim; moves cold_ms_p50"},

	{"spmd.msgs_per_round", "count", false, kindLayer, 0, "sum of Report.Msgs over a round (exact)"},
	{"spmd.bytes_per_round", "count", false, kindLayer, 0, "sum of Report.Bytes over a round (exact)"},
	{"spmd.bytesof_ns", "ns", false, kindLayer, 0, "spmd.BytesOf([]float64{1}): box + price; moves speedup_p2 on batch-comm"},
	{"spmd.encode_small_ns", "ns", false, kindLayer, 0, "AppendPayload of []float64{1}; moves remote (poisson half)"},
	{"spmd.decode_small_ns", "ns", false, kindLayer, 0, "DecodePayload of []float64{1}; moves remote (poisson half)"},
	{"spmd.encode_bulk_mb_s", "MB/s", true, kindLayer, 0, "AppendPayload of a 1 MiB []int32; moves remote (mergesort half)"},
	{"spmd.decode_bulk_mb_s", "MB/s", true, kindLayer, 0, "DecodePayload of a 1 MiB []int32; moves remote (mergesort half)"},
	{"spmd.codec_allocs_small", "count", false, kindLayer, 0, "allocations per small encode+decode round trip"},

	{"backend.real_oneway_us", "us", false, kindLayer, 0, "ping-pong of []float64{1} on real, per message; moves speedup_p2 on batch-comm and samples_per_s, not batch-compute"},
	{"backend.sim_oneway_us", "us", false, kindLayer, 0, "same on sim, host time; moves cold_ms_p50"},
	{"backend.real_world_us", "us", false, kindLayer, 0, "empty-body P=2 world on real"},
	{"backend.sim_world_us", "us", false, kindLayer, 0, "empty-body P=2 world on sim; moves cold_ms_p50"},
	{"backend.real_bulk_gb_s", "GB/s", true, kindLayer, 0, "ping-pong of a 1 MiB []int32 on real: a pointer hand-off, so hidden copies show; moves frames_per_s"},
	{"backend.blocked_share", "ratio", false, kindLayer, 0, "traced parallel runs: sum BlockedSec / (P * SpanSec); lower means higher speedup_p2 on batch-comm"},
	{"backend.comm_share", "ratio", false, kindLayer, 0, "same for CommSec (time inside Send)"},
	{"backend.busy_share", "ratio", true, kindLayer, 0, "same for BusySec"},

	{"collective.allreduce_us", "us", false, kindLayer, 0, "AllReduce(float64, max) in one P=2 real world; moves speedup_p2 on batch-comm"},
	{"collective.alltoall_mb_s", "MB/s", true, kindLayer, 0, "AllToAll of 256 KiB blocks, P=2 real; moves round_ms_p50 on batch-compute"},

	{"dist.oneway_us", "us", false, kindLayer, 0, "ping-pong on registry dist, per message; moves remote (poisson half)"},
	{"dist.bulk_mb_s", "MB/s", true, kindLayer, 0, "1 MiB ping-pong on dist; moves remote (mergesort half)"},
	{"dist.world_start_ms", "ms", false, kindLayer, 0, "empty-body P=2 world on dist: spawn + handshake + finish barrier"},
	{"dist.sortapp_ms", "ms", false, kindLayer, 0, "mergesort median inside remote"},
	{"dist.poisson_ms", "ms", false, kindLayer, 0, "poisson median inside remote"},
	{"dist.real_ms", "ms", false, kindLayer, 0, "the remote round's two programs on real at P=2"},
	{"dist.tax_x", "ratio", false, kindLayer, 0, "remote round / dist.real_ms: what the workers-compute roadmap item must drive toward 1"},
	{"dist.model_residual_pct", "%", false, kindLayer, 0, "share of the remote round that 2*world_start + msgs*oneway + bytes/bulk + real time leaves unexplained"},
	{"elastic.oneway_us", "us", false, kindLayer, 0, "ping-pong on registry elastic; 0 when that backend is not registered"},
	{"elastic.world_start_ms", "ms", false, kindLayer, 0, "empty-body P=2 world on elastic; 0 when not registered"},

	{"sortapp.mergesort_melem_s", "Melem/s", true, kindLayer, 0, "sortapp.MergeSort of 2^20 random int32; moves round_ms_p50 on batch-compute"},
	{"sortapp.p1_ms", "ms", false, kindLayer, 0, "mergesort@2^21 P=1 median inside batch-compute"},
	{"sortapp.p2_ms", "ms", false, kindLayer, 0, "mergesort@2^21 P=2"},
	{"fft.p1_ms", "ms", false, kindLayer, 0, "fft@512 P=1"},
	{"fft.p2_ms", "ms", false, kindLayer, 0, "fft@512 P=2"},
	{"cfd.p1_ms", "ms", false, kindLayer, 0, "cfd@128 P=1"},
	{"cfd.p2_ms", "ms", false, kindLayer, 0, "cfd@128 P=2"},
	{"fft.twod_512_ms", "ms", false, kindLayer, 0, "fft.TwoDSeq forward on 512x512; moves batch-compute and frames_per_s"},
	{"poisson.p1_ms", "ms", false, kindLayer, 0, "poisson@41 P=1 median inside batch-comm"},
	{"poisson.p2_ms", "ms", false, kindLayer, 0, "poisson@41 P=2"},
	{"poisson.ns_per_point", "ns", false, kindLayer, 0, "P=1 makespan / (iterations * n^2): the kernel half of batch-comm"},

	{"stream.fft_ms", "ms", false, kindLayer, 0, "streamfft run median inside stream"},
	{"stream.hist_ms", "ms", false, kindLayer, 0, "streamhist run median inside stream"},
	{"stream.msgs_per_s", "1/s", true, kindLayer, 0, "streamhist Report.Msgs / wall; moves samples_per_s"},
	{"stream.mb_per_s", "MB/s", true, kindLayer, 0, "streamfft Report.Bytes / wall; moves frames_per_s"},
	{"stream.window_cv", "ratio", false, kindLayer, 0, "coefficient of variation of streamhist StreamWindow.Rate: stalls from credit starvation"},
	{"stream.round_ms_p66", "ms", false, kindLayer, 0, "stream round tail"},

	{"sched.flight_us", "us", false, kindLayer, 0, "Flight.Do with a fresh key and a no-op fn; moves cold_ms_p50"},
	{"rescache.key_us", "us", false, kindLayer, 0, "rescache.Key of a canonical spec"},
	{"rescache.get_hit_us", "us", false, kindLayer, 0, "Cache.Get of a present entry; moves warm_ms_p50"},
	{"rescache.get_miss_us", "us", false, kindLayer, 0, "Cache.Get of an absent key; moves cold_ms_p50"},
	{"rescache.put_us", "us", false, kindLayer, 0, "Cache.Put; moves cold_ms_p50"},
	{"rescache.entries_end", "count", false, kindLayer, 0, "entry files in the cache dir after the run"},
	{"rescache.disk_mb_end", "MB", false, kindLayer, 0, "bytes in the cache dir after the run"},

	{"serve.handler_warm_us", "us", false, kindLayer, 0, "Server.ServeHTTP of a warm spec into a ResponseRecorder, no socket; moves warm_ms_p50"},
	{"serve.http_overhead_us", "us", false, kindLayer, 0, "warm_ms_p50 - serve.handler_warm_us: socket + client; moves warm_ms_p50 and req_per_s"},
	{"serve.cold_overhead_ms", "ms", false, kindLayer, 0, "cold_ms_p50 - median direct arch.RunSpec of the sampled cold specs: admission + flight + cache write + SSE"},
	{"serve.warm_jobtable_ms_p50", "ms", false, kindLayer, 0, "warm latency before the restart: the job table has the job"},
	{"serve.warm_disk_ms_p50", "ms", false, kindLayer, 0, "first touch after the restart: only rescache has it"},
	{"serve.cache_hits", "count", false, kindLayer, 0, "archserve_cache_hits_total, summed over both server instances"},
	{"serve.cache_misses", "count", false, kindLayer, 0, "archserve_cache_misses_total"},
	{"serve.jobs_done", "count", false, kindLayer, 0, "archserve_jobs_total{state=done}"},
	{"serve.jobs_failed", "count", false, kindLayer, 0, "archserve_jobs_total{state=failed}"},
	{"serve.exec_s_sum", "s", false, kindLayer, 0, "archserve_run_duration_seconds_sum: executed time; / sum of cold latency = execute share of cold_ms_p50"},
	{"serve.coalesced_n", "count", false, kindLayer, 0, "warm requests that found their job still in flight and were followed"},
	{"serve.jobs_live_end", "count", false, kindLayer, 0, "/healthz jobs of the last instance: the job table is never evicted"},
	{"serve.goroutines_end", "count", false, kindLayer, 0, "runtime.NumGoroutine after the run, before shutdown"},
	{"serve.heap_mb_end", "MB", false, kindLayer, 0, "HeapAlloc after the run"},
	{"serve.restart_ms", "ms", false, kindLayer, 0, "Shutdown to the first response of the new instance"},

	{"obs.overhead_pct", "%", false, kindLayer, 0, "traced rounds' median vs the untraced rounds they alternate with"},
	{"obs.events_per_round", "count", false, kindLayer, 0, "flight-recorder events retained per traced round"},
	{"obs.dropped", "count", false, kindLayer, 0, "events lost to ring overflow per traced round"},
	{"obs.critical_path_share", "ratio", false, kindLayer, 0, "sum CriticalPathSec / sum SpanSec over parallel runs"},

	{"proc.cpu_s", "s", false, kindLayer, 0, "user+system CPU of the process and its reaped children over the timed window"},
	{"proc.cpu_util", "ratio", true, kindLayer, 0, "proc.cpu_s / (wall * 2)"},
	{"proc.peak_rss_mb", "MB", false, kindLayer, 0, "getrusage max RSS of the process"},
	{"proc.alloc_mb_per_op", "MB", false, kindLayer, 0, "heap bytes allocated per op over the timed window"},
	{"proc.allocs_per_op", "count", false, kindLayer, 0, "heap objects allocated per op"},
	{"proc.gc_pause_ms", "ms", false, kindLayer, 0, "total GC pause over the timed window"},
	{"proc.gc_cycles", "count", false, kindLayer, 0, "GC cycles over the timed window"},

	{"bench.samples", "count", true, kindLayer, 0, "rounds in the timed window"},
	{"bench.wall_s", "s", false, kindLayer, 0, "length of the timed window"},
	{"bench.timeouts", "count", false, kindLayer, 0, "ops that hit the 20 s deadline"},
}

func defByName(name string) (def, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return def{}, false
}

// measured is one emitted metric value with its sample count.
type measured struct {
	Value float64
	N     int
}

// results collects what one workload run emits. Emitting a name that is
// not in defs, or emitting one twice, is a bug in the benchmark and panics.
type results struct {
	workload  string
	attempted int
	failed    int
	timeouts  int
	out       map[string]measured
}

func newResults(workload string) *results {
	return &results{workload: workload, out: map[string]measured{}}
}

func (r *results) emit(name string, value float64, n int) {
	if _, ok := defByName(name); !ok {
		panic("bench: metric " + name + " is not in defs")
	}
	if _, dup := r.out[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	r.out[name] = measured{value, n}
}

// metricLine is the self-describing per-metric output line.
type metricLine struct {
	Workload string  `json:"workload"`
	Name     string  `json:"name"`
	Kind     string  `json:"kind"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	N        int     `json:"n"`
}

// finalLine is the result object the driver reads from the last line.
type finalLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]finalMetric `json:"metrics"`
}

type finalMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints one line per emitted metric and then the result object:
// every gated metric for an untraced run, every layer metric for a traced
// one. A layer metric the workload does not exercise reads 0.
func (r *results) write(w io.Writer, traced bool) error {
	final := finalLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]finalMetric{},
	}
	enc := json.NewEncoder(w)
	for _, d := range defs {
		m, ok := r.out[d.Name]
		if ok {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("metric %s is not finite", d.Name)
			}
			kind := d.Kind
			if kind == kindGated {
				kind = kindE2E
			}
			if err := enc.Encode(metricLine{r.workload, d.Name, kind, m.Value, d.Unit, d.better(), m.N}); err != nil {
				return err
			}
		}
		switch {
		case !traced && d.Kind == kindGated:
			if !ok {
				return fmt.Errorf("gated metric %s was not measured", d.Name)
			}
			final.Metrics[d.Name] = finalMetric{m.Value, d.Unit}
		case traced && d.Kind == kindLayer:
			final.Metrics[d.Name] = finalMetric{m.Value, d.Unit}
		}
	}
	return enc.Encode(final)
}

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted and is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(sec float64) float64 { return sec * 1e3 }
