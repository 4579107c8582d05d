package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// metrics is the server's Prometheus registry: every counter the request
// handlers touch, plus scrape-time gauges over the server's admission
// state. The same numbers back /metrics and the enriched /healthz, so
// the two views can never disagree.
type metrics struct {
	reg *obs.Registry
	// jobs counts jobs reaching a terminal state, by state ("done",
	// "failed"); cache-served completions count as done.
	jobs *obs.CounterVec
	// failed refines the failed count by the structured failure reason.
	failed *obs.CounterVec
	// jobtableHits counts batch submissions answered by the job table.
	jobtableHits *obs.Counter
	// cacheHits / cacheMisses count persistent result-cache lookups,
	// made only when the job table does not know the job.
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	// runDur observes executed (not cache-served) batch run durations.
	runDur *obs.Histogram
	// streamWindows / streamElems count stream-job progress windows and
	// the elements that flowed through their sinks.
	streamWindows *obs.Counter
	newElems      *obs.Counter
}

func newMetrics() *metrics {
	reg := obs.NewRegistry()
	return &metrics{
		reg:           reg,
		jobs:          reg.CounterVec("archserve_jobs_total", "Jobs reaching a terminal state.", "state"),
		failed:        reg.CounterVec("archserve_jobs_failed_total", "Failed jobs by structured failure reason.", "reason"),
		jobtableHits:  reg.Counter("archserve_jobtable_hits_total", "Batch submissions answered by the job table."),
		cacheHits:     reg.Counter("archserve_cache_hits_total", "Persistent result-cache hits."),
		cacheMisses:   reg.Counter("archserve_cache_misses_total", "Persistent result-cache misses."),
		runDur:        reg.Histogram("archserve_run_duration_seconds", "Executed batch run durations.", obs.DurationBuckets),
		streamWindows: reg.Counter("archserve_stream_windows_total", "Stream-job progress windows."),
		newElems:      reg.Counter("archserve_stream_elems_total", "Elements through stream-job sinks."),
	}
}

// registerGauges adds the scrape-time gauges over the server's live
// admission state. Called once from New, after s.met exists.
func (s *Server) registerGauges() {
	s.met.reg.Gauge("archserve_queue_depth", "Admitted batch jobs not yet terminal.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.active)
	})
	s.met.reg.Gauge("archserve_queue_limit", "Batch admission bound (QueueDepth).", func() float64 {
		return float64(s.queueDepth())
	})
	s.met.reg.Gauge("archserve_stream_jobs_active", "Running stream jobs.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.streamActive)
	})
	s.met.reg.Gauge("archserve_jobs_tracked", "Jobs in the in-memory job table.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.jobs))
	})
	s.met.reg.Gauge("archserve_uptime_seconds", "Seconds since the server started.", func() float64 {
		return time.Since(s.started).Seconds()
	})
}

// handleMetrics serves the registry as Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.reg.WriteText(w)
}

// healthInfo is the enriched /healthz body: liveness plus the identity
// and load facts an operator wants from a probe — uptime, build info,
// and the same live gauges /metrics exposes.
type healthInfo struct {
	Status       string  `json:"status"`
	UptimeSec    float64 `json:"uptimeSec"`
	Go           string  `json:"go"`
	Module       string  `json:"module,omitempty"`
	Revision     string  `json:"revision,omitempty"`
	Jobs         int     `json:"jobs"`
	Active       int     `json:"active"`
	QueueLimit   int     `json:"queueLimit"`
	StreamActive int     `json:"streamActive"`
}

// handleHealthz serves the liveness probe with uptime, build info, and
// live job gauges.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	info := healthInfo{
		Status:     "ok",
		UptimeSec:  time.Since(s.started).Seconds(),
		Go:         runtime.Version(),
		QueueLimit: s.queueDepth(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				info.Revision = kv.Value
			}
		}
	}
	s.mu.Lock()
	info.Jobs = len(s.jobs)
	info.Active = s.active
	info.StreamActive = s.streamActive
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

// statusWriter captures the response code for the request log. It
// forwards Flush so SSE streaming keeps working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	sw.code = code
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Flush() {
	if fl, ok := sw.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// recordOutcome bumps the terminal-state counters for one finished job;
// dur > 0 additionally lands in the run-duration histogram (executed
// runs only — cache-served completions have no run to time).
func (s *Server) recordOutcome(err error, dur float64) {
	if err != nil {
		s.met.jobs.Inc(StateFailed)
		s.met.failed.Inc(classifyFailure(err).Reason)
		return
	}
	s.met.jobs.Inc(StateDone)
	if dur > 0 {
		s.met.runDur.Observe(dur)
	}
}
