package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Emit(0, Event{Kind: KindSend})
	r.EmitSys(Event{Kind: KindStart})
	r.SetParks(0, 3)
	if r.Now() != 0 || r.N() != 0 || r.Label() != "" {
		t.Fatal("nil recorder not inert")
	}
	if ev, d := r.Events(0); ev != nil || d != 0 {
		t.Fatal("nil recorder returned events")
	}
	if r.Summary() != nil {
		t.Fatal("nil recorder summary")
	}
	var c *Collector
	c.Emit(Event{Kind: KindEnqueue})
	if c.NewRecorder(4, "x") != nil || c.Last() != nil || c.Runs() != nil {
		t.Fatal("nil collector not inert")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carried a collector")
	}
	if RunRecorder(context.Background(), 4, "sim") != nil {
		t.Fatal("RunRecorder without collector must be nil")
	}
}

func TestRingOrderAndDrop(t *testing.T) {
	r := NewRecorder(1, "test")
	r.ringCap = 8
	for i := 0; i < 20; i++ {
		r.Emit(0, Event{T: int64(i), Kind: KindSend})
	}
	ev, dropped := r.Events(0)
	if dropped != 12 {
		t.Fatalf("dropped = %d, want 12", dropped)
	}
	if len(ev) != 8 {
		t.Fatalf("len = %d, want 8", len(ev))
	}
	for i, e := range ev {
		if e.T != int64(12+i) {
			t.Fatalf("ev[%d].T = %d, want %d (oldest must drop first)", i, e.T, 12+i)
		}
	}
}

func TestRingGrowsLazily(t *testing.T) {
	r := NewRecorder(1, "test")
	for i := 0; i < 3; i++ {
		r.Emit(0, Event{T: int64(i), Kind: KindSend})
	}
	if got := len(r.rings[0].buf); got != ringStart {
		t.Fatalf("ring grew to %d after 3 events, want %d", got, ringStart)
	}
	ev, dropped := r.Events(0)
	if len(ev) != 3 || dropped != 0 {
		t.Fatalf("events = %d dropped = %d", len(ev), dropped)
	}
}

func TestCollectorContextSeam(t *testing.T) {
	c := NewCollector()
	ctx := NewContext(context.Background(), c)
	if FromContext(ctx) != c {
		t.Fatal("FromContext lost the collector")
	}
	rec := RunRecorder(ctx, 4, "real")
	if rec == nil || rec.N() != 4 || rec.Label() != "real" {
		t.Fatalf("RunRecorder = %+v", rec)
	}
	if c.Last() != rec || len(c.Runs()) != 1 {
		t.Fatal("collector did not register the recorder")
	}
}

func TestCollectorRunCap(t *testing.T) {
	c := NewCollector()
	for i := 0; i < maxRuns; i++ {
		if c.NewRecorder(1, "x") == nil {
			t.Fatalf("run %d refused below cap", i)
		}
	}
	if c.NewRecorder(1, "x") != nil {
		t.Fatal("run above cap accepted")
	}
	if c.DroppedRuns() != 1 {
		t.Fatalf("DroppedRuns = %d", c.DroppedRuns())
	}
}

// TestConcurrentEmit exercises the documented concurrency contract under
// the race detector: each rank ring has exactly one writer; the system
// ring takes writes from everywhere.
func TestConcurrentEmit(t *testing.T) {
	r := NewRecorder(8, "race")
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Emit(rank, Event{T: int64(i), Kind: KindSend, Peer: int32(rank)})
				if i%100 == 0 {
					r.EmitSys(Event{T: int64(i), Kind: KindHeartbeat, Rank: -1})
				}
			}
		}(rank)
	}
	wg.Wait()
	for rank := 0; rank < 8; rank++ {
		ev, _ := r.Events(rank)
		if len(ev) != 1000 {
			t.Fatalf("rank %d has %d events", rank, len(ev))
		}
	}
	sys, _ := r.SysEvents()
	if len(sys) != 80 {
		t.Fatalf("system ring has %d events, want 80", len(sys))
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder(2, "sim")
	// rank 0: sends 2 msgs to rank 1 (100ns each inside Send), then
	// blocks 300ns receiving one back.
	r.Emit(0, Event{T: 0, Dur: 100, Bytes: 64, Peer: 1, Tag: 7, Kind: KindSend})
	r.Emit(0, Event{T: 200, Dur: 100, Bytes: 32, Peer: 1, Tag: 7, Kind: KindSend})
	r.Emit(0, Event{T: 400, Dur: 300, Bytes: 8, Peer: 1, Tag: 9, Kind: KindRecv})
	// rank 1: receives both, sends one back.
	r.Emit(1, Event{T: 0, Dur: 150, Bytes: 64, Peer: 0, Tag: 7, Kind: KindRecv})
	r.Emit(1, Event{T: 300, Dur: 50, Bytes: 32, Peer: 0, Tag: 7, Kind: KindRecvAny})
	r.Emit(1, Event{T: 600, Dur: 100, Bytes: 8, Peer: 0, Tag: 9, Kind: KindSend})
	// Park counts are run totals handed over at Finish, not events; an
	// out-of-range rank is ignored like an out-of-range Emit.
	r.SetParks(1, 2)
	r.SetParks(2, 9)
	s := r.Summary()
	if s.Ranks[0].Parks != 0 || s.Ranks[1].Parks != 2 {
		t.Fatalf("parks: rank 0 %d, rank 1 %d, want 0 and 2", s.Ranks[0].Parks, s.Ranks[1].Parks)
	}
	if s.Procs != 2 || s.Label != "sim" {
		t.Fatalf("summary header: %+v", s)
	}
	if got, want := s.SpanSec, 700e-9; got != want {
		t.Fatalf("SpanSec = %g, want %g", got, want)
	}
	r0 := s.Ranks[0]
	if r0.CommSec != 200e-9 || r0.BlockedSec != 300e-9 {
		t.Fatalf("rank 0 comm/blocked: %+v", r0)
	}
	if want := 700e-9 - 200e-9 - 300e-9; r0.BusySec != want {
		t.Fatalf("rank 0 busy = %g, want %g", r0.BusySec, want)
	}
	if len(s.Edges) != 2 {
		t.Fatalf("edges: %+v", s.Edges)
	}
	e0 := s.Edges[0]
	if e0.Src != 0 || e0.Dst != 1 || e0.Msgs != 2 || e0.Bytes != 96 {
		t.Fatalf("edge 0->1: %+v", e0)
	}
	if s.CriticalPathSec <= 0 || s.CriticalPathSec > s.SpanSec {
		t.Fatalf("critical path %g outside (0, span]", s.CriticalPathSec)
	}
}

func TestChromeExport(t *testing.T) {
	c := NewCollector()
	c.Emit(Event{Kind: KindEnqueue, Rank: -1})
	rec := c.NewRecorder(2, "real")
	rec.Emit(0, Event{T: 1000, Dur: 500, Bytes: 8, Peer: 1, Tag: 3, Kind: KindSend})
	rec.Emit(1, Event{T: 1200, Dur: 250, Bytes: 8, Peer: 0, Tag: 3, Kind: KindRecv})
	rec.EmitSys(Event{T: 0, Rank: -1, Kind: KindStart})
	var buf bytes.Buffer
	if err := c.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, e := range trace.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event without ph: %v", e)
		}
		if name, ok := e["name"].(string); ok {
			names[name] = true
		}
		if ph == "X" {
			if _, ok := e["dur"].(float64); !ok {
				t.Fatalf("complete event without dur: %v", e)
			}
		}
	}
	for _, want := range []string{"send", "recv", "start", "enqueue", "process_name", "thread_name"} {
		if !names[want] {
			t.Fatalf("trace missing %q events; have %v", want, names)
		}
	}
	// send is a duration event at ts=1µs, dur=0.5µs on pid 1 / tid 0.
	found := false
	for _, e := range trace.TraceEvents {
		if e["name"] == "send" {
			found = e["ts"].(float64) == 1.0 && e["dur"].(float64) == 0.5 && e["pid"].(float64) == 1 && e["tid"].(float64) == 0
		}
	}
	if !found {
		t.Fatal("send event not exported with µs timestamps on run track")
	}
}

func TestPromText(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "total tests")
	c.Add(3)
	v := reg.CounterVec("test_jobs_total", "jobs by state", "state")
	v.Inc("done")
	v.Inc("done")
	v.Inc("failed")
	reg.Gauge("test_depth", "queue depth", func() float64 { return 4 })
	h := reg.Histogram("test_seconds", "durations", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP test_total total tests",
		"# TYPE test_total counter",
		"test_total 3",
		`test_jobs_total{state="done"} 2`,
		`test_jobs_total{state="failed"} 1`,
		"# TYPE test_depth gauge",
		"test_depth 4",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="+Inf"} 3`,
		"test_seconds_sum 5.55",
		"test_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Exposition order is registration order and every line is either a
	// comment or name[{labels}] value.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("edge_seconds", "x", []float64{1, 2})
	h.Observe(1) // le="1" includes the bound
	h.Observe(2)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`edge_seconds_bucket{le="1"} 1`, `edge_seconds_bucket{le="2"} 2`} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}
