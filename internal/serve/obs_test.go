package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/serve"
)

// get fetches one path from the service and returns the status code and
// body text.
func get(t *testing.T, c *serve.Client, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(strings.TrimRight(c.Base, "/") + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestMetricsEndpoint pins the Prometheus surface: job outcomes, hits per
// dedup layer, and the run-duration histogram must appear in valid text
// exposition after the service has done some work.
func TestMetricsEndpoint(t *testing.T) {
	cache := openCache(t, t.TempDir())
	_, c := newService(t, serve.Config{Cache: cache})
	ctx := context.Background()

	// One executed run (a cache miss), one warm resubmission (a job-table
	// hit, which reads no file), one induced failure (a cache miss).
	if st, err := c.Run(ctx, arch.Spec{App: "servetest", Procs: 2}); err != nil || st.State != serve.StateDone {
		t.Fatalf("first run: %v (state %v)", err, st.State)
	}
	if st, err := c.Run(ctx, arch.Spec{App: "servetest", Procs: 2}); err != nil || st.State != serve.StateDone {
		t.Fatalf("resubmission: %v (state %v)", err, st.State)
	}
	if st, err := c.Run(ctx, arch.Spec{App: "servetest", Procs: 2, Size: 666}); err != nil || st.State != serve.StateFailed {
		t.Fatalf("induced failure: err=%v state=%v, want a failed status", err, st.State)
	}

	code, body := get(t, c, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", code, body)
	}
	for _, want := range []string{
		`archserve_jobs_total{state="done"}`,
		`archserve_jobs_total{state="failed"} 1`,
		`archserve_jobs_failed_total{reason="internal"} 1`,
		"archserve_jobtable_hits_total 1",
		"archserve_cache_hits_total 0",
		"archserve_cache_misses_total 2",
		`archserve_run_duration_seconds_bucket{le="+Inf"}`,
		"archserve_run_duration_seconds_sum",
		"archserve_run_duration_seconds_count",
		"archserve_queue_depth 0",
		"archserve_queue_limit 64",
		"archserve_stream_jobs_active 0",
		"archserve_jobs_tracked",
		"# TYPE archserve_run_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics is missing %q\n%s", want, body)
		}
	}

	// A restarted server's job table is empty: the same resubmission is a
	// disk hit there.
	_, c2 := newService(t, serve.Config{Cache: cache})
	if st, err := c2.Submit(ctx, arch.Spec{App: "servetest", Procs: 2}); err != nil || !st.Cached {
		t.Fatalf("post-restart resubmission: %v (cached %v)", err, st.Cached)
	}
	_, body = get(t, c2, "/metrics")
	for _, want := range []string{
		"archserve_jobtable_hits_total 0",
		"archserve_cache_hits_total 1",
		"archserve_cache_misses_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("restarted /metrics is missing %q", want)
		}
	}
}

// TestHealthzEnriched pins the liveness probe's upgraded body: status,
// uptime, build info, and the live gauges.
func TestHealthzEnriched(t *testing.T) {
	_, c := newService(t, serve.Config{})
	code, body := get(t, c, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("GET /healthz = %d: %s", code, body)
	}
	var h struct {
		Status     string  `json:"status"`
		UptimeSec  float64 `json:"uptimeSec"`
		Go         string  `json:"go"`
		QueueLimit int     `json:"queueLimit"`
		Jobs       int     `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q, want ok", h.Status)
	}
	if h.UptimeSec < 0 {
		t.Errorf("uptimeSec = %g, want >= 0", h.UptimeSec)
	}
	if !strings.HasPrefix(h.Go, "go") {
		t.Errorf("go = %q, want a runtime version", h.Go)
	}
	if h.QueueLimit != 64 {
		t.Errorf("queueLimit = %d, want the default 64", h.QueueLimit)
	}
}

// TestTraceEndpoint pins the traced-job path: a spec submitted with
// trace:true runs under the flight recorder, bypasses the result cache
// in both directions, and serves Chrome trace JSON at /runs/{id}/trace.
func TestTraceEndpoint(t *testing.T) {
	cache := openCache(t, t.TempDir())
	_, c := newService(t, serve.Config{Cache: cache})
	ctx := context.Background()
	before := testRuns.Load()

	st, err := c.Run(ctx, arch.Spec{App: "servetest", Procs: 2, Trace: true})
	if err != nil || st.State != serve.StateDone {
		t.Fatalf("traced run: %v (state %v)", err, st.State)
	}
	if st.Cached {
		t.Fatal("traced run answered from cache; traced jobs must execute")
	}
	if st.Report == nil || st.Report.Obs == nil {
		t.Fatal("traced run's report carries no obs summary")
	}
	if got := testRuns.Load(); got != before+1 {
		t.Fatalf("traced run executed %d times, want 1", got-before)
	}

	code, body := get(t, c, "/runs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /runs/{id}/trace = %d: %s", code, body)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &trace); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}

	// The traced result is never persisted: the rescache must have no
	// entry under the job's key (which is the content address), while a
	// resubmission is still answered by the in-memory job — with its
	// trace — not by the cache.
	if e, _ := cache.Get(st.ID); e != nil {
		t.Fatal("traced result was persisted to the rescache")
	}
	st2, err := c.Run(ctx, arch.Spec{App: "servetest", Procs: 2, Trace: true})
	if err != nil || st2.State != serve.StateDone || st2.Cached {
		t.Fatalf("traced resubmission: err=%v state=%v cached=%v, want the live job's result", err, st2.State, st2.Cached)
	}
	if st2.ID != st.ID {
		t.Fatalf("traced resubmission got job %s, want the original %s", st2.ID, st.ID)
	}

	// An untraced job has no trace to serve.
	stPlain, err := c.Run(ctx, arch.Spec{App: "servetest", Procs: 2})
	if err != nil || stPlain.State != serve.StateDone {
		t.Fatalf("untraced run: %v (state %v)", err, stPlain.State)
	}
	if code, _ := get(t, c, "/runs/"+stPlain.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("GET trace of untraced run = %d, want 404", code)
	}
}

// TestTraceRejectedForStreams pins spec validation: trace:true on a
// stream app is a 400, not a silent no-op.
func TestTraceRejectedForStreams(t *testing.T) {
	_, c := newService(t, serve.Config{})
	_, err := c.Submit(context.Background(), arch.Spec{App: "servestreamtest", Trace: true})
	if err == nil || !strings.Contains(err.Error(), "not supported for stream") {
		t.Fatalf("traced stream submission error = %v, want a trace-not-supported rejection", err)
	}
}

// TestRequestLogging pins the access log: with LogRequests on, each
// request logs method, path, status, and duration; with it off (the
// config default), nothing is logged per request.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := log.New(&buf, "", 0)
	_, c := newService(t, serve.Config{LogRequests: true, Log: logger})
	if code, _ := get(t, c, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if code, _ := get(t, c, "/nosuch"); code != http.StatusNotFound {
		t.Fatal("expected 404 for unknown path")
	}
	out := buf.String()
	if !strings.Contains(out, "GET /healthz 200") {
		t.Errorf("access log missing healthz line:\n%s", out)
	}
	if !strings.Contains(out, "GET /nosuch 404") {
		t.Errorf("access log missing 404 line:\n%s", out)
	}

	buf.Reset()
	_, cq := newService(t, serve.Config{Log: logger})
	if code, _ := get(t, cq, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	if strings.Contains(buf.String(), "/healthz") {
		t.Errorf("quiet server logged a request:\n%s", buf.String())
	}
}
