package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one benchmark-side interval: a layer boundary seen from outside
// the program. Parent is an index into the tracer's spans (-1 for a root);
// ID is the round or request the span belongs to.
type span struct {
	Name       string
	Start, End int64 // ns since the tracer's epoch
	Parent     int
	ID         int
	Track      int // Chrome thread id: 0 for the round loop, 1.. for serve clients
}

// keepCollectors is how many traced rounds keep their flight-recorder
// collectors for the trace file. Every traced round feeds the obs.*
// metrics through Report.Obs; the rank tracks of all of them would make a
// file of hundreds of megabytes.
const keepCollectors = 2

// tracer records the benchmark's own spans in memory and writes them out
// when the workload ends. A nil *tracer is valid and records nothing, which
// is how untraced rounds run the same code.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	cols  []keptCollector
}

// keptCollector is a round's collector and where its epoch lies on the
// tracer's timeline.
type keptCollector struct {
	col      *obs.Collector
	offsetNs int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(name string, parent, id, track int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: parent, ID: id, Track: track})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = t.now()
	t.mu.Unlock()
}

// newCollector returns a collector for one traced round, remembered for
// the trace file while fewer than keepCollectors are held.
func (t *tracer) newCollector() *obs.Collector {
	if t == nil {
		return nil
	}
	col := obs.NewCollector()
	t.mu.Lock()
	if len(t.cols) < keepCollectors {
		t.cols = append(t.cols, keptCollector{col, t.now()})
	}
	t.mu.Unlock()
	return col
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part their direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		self[s.Name] += time.Duration(s.End - s.Start - covered(children[i]))
	}
	return self
}

// covered is the length of the union of the spans' intervals: children on
// concurrent tracks (serve clients) cover their parent's time once.
func covered(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for _, s := range spans {
		if s.Start > end {
			end = s.Start
		}
		if s.End > end {
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// printSelfTimes writes the per-layer self-time table, largest first.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(w, "# self time per span (span minus its children), %d spans\n", len(t.spans))
	for _, name := range names {
		fmt.Fprintf(w, "#   %-28s %10.1f ms\n", name, self[name].Seconds()*1e3)
	}
}

// chromeEvent is one Chrome trace-event; the collector's own events are
// carried through as generic maps.
type chromeEvent map[string]any

// benchPid is the Chrome process id of the benchmark's span tracks; kept
// collector k's runs get pids from (k+1)*collectorPidStride up.
const (
	benchPid           = 0
	collectorPidStride = 1000
)

// writeChrome writes the benchmark spans, merged with the kept collectors'
// per-rank tracks shifted onto the same timeline, as Chrome trace-event
// JSON (ui.perfetto.dev loads it).
func (t *tracer) writeChrome(path string) error {
	events := []chromeEvent{
		{"name": "process_name", "ph": "M", "pid": benchPid, "tid": 0, "args": map[string]any{"name": "bench"}},
	}
	for _, s := range t.spans {
		args := map[string]any{"id": s.ID}
		if s.Parent >= 0 {
			args["parent"] = t.spans[s.Parent].Name
		}
		events = append(events, chromeEvent{
			"name": s.Name, "ph": "X", "pid": benchPid, "tid": s.Track,
			"ts": float64(s.Start) / 1e3, "dur": float64(s.End-s.Start) / 1e3, "args": args,
		})
	}
	for k, kc := range t.cols {
		blob, err := kc.col.ChromeJSON()
		if err != nil {
			return fmt.Errorf("encoding collector trace: %w", err)
		}
		var ct struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(blob, &ct); err != nil {
			return fmt.Errorf("decoding collector trace: %w", err)
		}
		for _, e := range ct.TraceEvents {
			if pid, ok := e["pid"].(float64); ok {
				e["pid"] = (k+1)*collectorPidStride + int(pid)
			}
			if ts, ok := e["ts"].(float64); ok {
				e["ts"] = ts + float64(kc.offsetNs)/1e3
			}
			events = append(events, e)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
