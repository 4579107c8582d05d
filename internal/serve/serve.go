// Package serve is the archetype service: an HTTP/JSON daemon that puts
// the arch app registry behind a long-lived server, so the paper's
// reusable artifacts are served instead of re-built — submit a run,
// watch its progress, fetch its result, and pay for each distinct
// experiment once.
//
// The request surface is small and shaped by the facade it fronts:
//
//	GET  /apps             the registry: name, description, default size, backends
//	POST /runs             submit a run spec {app, size, procs, machine, backend, mode, trace}
//	GET  /runs/{id}        one job's status (poll until state done/failed)
//	GET  /runs/{id}/events the same status stream as server-sent events
//	GET  /runs/{id}/trace  Chrome trace JSON of a job submitted with trace:true
//	GET  /metrics          Prometheus text exposition (jobs, cache, durations)
//	GET  /healthz          liveness probe: uptime, build info, live job gauges
//
// A submission is canonicalized (arch.Spec.Canonical) and addressed by
// content: the job ID is the SHA-256 of the canonical spec
// (rescache.Key), so "the same experiment" is a protocol-level notion,
// not a server-side heuristic. That one decision buys the two layers of
// deduplication the service is built around, consulted in this order:
//
//   - Identical requests while a job exists map to the same job — a
//     resubmission is a status read, and two identical submissions in
//     flight share one execution.
//   - Finished results persist in the content-addressed rescache; a
//     warm request in a freshly restarted process is a file read, never
//     a recomputation.
//
// A job that misses both re-checks the cache when it starts, in case
// another process sharing the cache directory has finished the same
// experiment since admission.
//
// Admission control is two bounds: the sched worker pool caps how many
// runs execute concurrently, and QueueDepth caps how many admitted jobs
// may be pending at once — past it, POST /runs answers 429 so overload
// is visible back-pressure, not an unbounded queue. Shutdown stops
// admitting (503), drains in-flight jobs, and only cancels them if the
// drain deadline expires.
//
// Specs naming a streaming app (kind "stream") become long-lived jobs
// instead: they run on their own goroutines under the separate
// StreamJobs bound, their SSE feed carries a status event per progress
// window (elements/sec at the sink) with periodic keep-alive comments
// in between, and their results are never persisted to the result cache
// — a stream's value is its progress while running, not a memoizable
// answer. Resubmitting a finished stream spec re-runs it.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/arch"
	"repro/internal/obs"
	"repro/internal/rescache"
	"repro/internal/sched"
)

// Config configures a Server. The zero value is usable: default worker
// pool, default queue depth, no persistent cache.
type Config struct {
	// Workers bounds how many runs execute concurrently (the sched pool
	// size). Zero means GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted jobs may be pending (queued or
	// running) at once; past it POST /runs returns 429. Zero means 64.
	QueueDepth int
	// Cache is the persistent content-addressed result store; nil runs
	// the service memoryless (every cold request recomputes). Stream
	// jobs never touch it: a long-lived run is not a cacheable result.
	Cache *rescache.Cache
	// StreamJobs bounds how many stream jobs may run concurrently;
	// past it POST /runs on a stream spec returns 429. Zero means 4.
	// Stream jobs run on their own goroutines, not the sched pool, so
	// long-lived streams cannot starve batch runs of workers.
	StreamJobs int
	// KeepAlive is the idle interval after which SSE streams emit a
	// keep-alive comment so proxies and idle timeouts don't sever
	// long-lived connections. Zero means 15s; negative disables.
	KeepAlive time.Duration
	// LogRequests turns on per-request access logging (method, path,
	// status, duration) through Log. Off by default; archserve enables
	// it unless started with -quiet.
	LogRequests bool
	// Log receives service events; nil means the standard logger.
	Log *log.Logger
}

// Defaults for Config's zero fields.
const (
	// defaultQueueDepth is the admitted-jobs bound when Config leaves
	// QueueDepth zero.
	defaultQueueDepth = 64
	// defaultStreamJobs is the concurrent stream-job bound when Config
	// leaves StreamJobs zero.
	defaultStreamJobs = 4
	// defaultKeepAlive is the SSE keep-alive interval when Config leaves
	// KeepAlive zero.
	defaultKeepAlive = 15 * time.Second
)

// runOutcome is what one executed (or cache-served) run hands back.
type runOutcome struct {
	summary string
	report  arch.Report
	cached  bool
	// trace is the Chrome trace-event JSON of a job submitted with
	// {"trace": true}, served by GET /runs/{id}/trace.
	trace []byte
}

// Server is the archetype service. Create one with New; it implements
// http.Handler.
type Server struct {
	cfg     Config
	logger  *log.Logger
	pool    *sched.Scheduler
	mux     *http.ServeMux
	met     *metrics
	started time.Time

	// runCtx parents every job execution; stopRuns cancels it when a
	// drain deadline expires.
	runCtx   context.Context
	stopRuns context.CancelFunc

	mu           sync.Mutex
	jobs         map[string]*job
	active       int  // admitted batch jobs, not yet terminal — the QueueDepth gauge
	streamActive int  // running stream jobs — the StreamJobs gauge
	draining     bool // true once Shutdown starts: no new admissions

	wg sync.WaitGroup // one count per admitted job, for drain
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	logger := cfg.Log
	if logger == nil {
		logger = log.Default()
	}
	runCtx, stopRuns := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		logger:   logger,
		pool:     &sched.Scheduler{Workers: cfg.Workers},
		mux:      http.NewServeMux(),
		met:      newMetrics(),
		started:  time.Now(),
		runCtx:   runCtx,
		stopRuns: stopRuns,
		jobs:     make(map[string]*job),
	}
	s.registerGauges()
	s.mux.HandleFunc("GET /apps", s.handleApps)
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("GET /runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP dispatches to the service's routes, with per-request access
// logging when configured.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.LogRequests {
		s.mux.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	s.logger.Printf("serve: %s %s %d %.1fms", r.Method, r.URL.Path, sw.code,
		float64(time.Since(start).Microseconds())/1e3)
}

// queueDepth returns the effective admission bound.
func (s *Server) queueDepth() int {
	if s.cfg.QueueDepth > 0 {
		return s.cfg.QueueDepth
	}
	return defaultQueueDepth
}

// streamJobs returns the effective concurrent stream-job bound.
func (s *Server) streamJobs() int {
	if s.cfg.StreamJobs > 0 {
		return s.cfg.StreamJobs
	}
	return defaultStreamJobs
}

// keepAlive returns the effective SSE keep-alive interval; 0 means
// disabled.
func (s *Server) keepAlive() time.Duration {
	switch {
	case s.cfg.KeepAlive > 0:
		return s.cfg.KeepAlive
	case s.cfg.KeepAlive < 0:
		return 0
	}
	return defaultKeepAlive
}

// AppInfo is one registry entry as GET /apps reports it.
type AppInfo struct {
	Name        string   `json:"name"`
	Desc        string   `json:"desc"`
	DefaultSize int      `json:"defaultSize"`
	Backends    []string `json:"backends"`
	Kind        string   `json:"kind"`
}

// handleApps serves the registry listing.
func (s *Server) handleApps(w http.ResponseWriter, r *http.Request) {
	apps := arch.Apps()
	out := make([]AppInfo, len(apps))
	for i, a := range apps {
		out[i] = AppInfo{Name: a.Name, Desc: a.Desc, DefaultSize: a.DefaultSize,
			Backends: arch.BackendNames(), Kind: a.KindName()}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleSubmit admits one run submission: canonicalize, address, dedup
// against the job table and then the persistent cache, then admit under
// the queue bound.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var sp arch.Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad run spec: %v", err))
		return
	}
	spec, err := sp.Canonical()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := rescache.Key(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if spec.Kind == arch.KindStream {
		s.submitStream(w, key, spec)
		return
	}

	// Traced jobs never consult the cache: the cached entry has no trace,
	// and the point of the submission is the trace.
	if j, revived := s.lookupJob(key, !spec.Trace); j != nil {
		if st, ok := answers(j); ok {
			if !revived {
				s.met.jobtableHits.Inc()
			}
			writeJSON(w, http.StatusOK, st)
			return
		}
	}

	s.mu.Lock()
	// An identical submission may have been admitted since the lookup.
	if j, ok := s.jobs[key]; ok {
		if st, ok := answers(j); ok {
			s.mu.Unlock()
			s.met.jobtableHits.Inc()
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.active >= s.queueDepth() {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("queue full: %d jobs pending (limit %d)", s.active, s.queueDepth()))
		return
	}
	j := newJob(key, spec)
	s.jobs[key] = j
	s.active++
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runJob(j)
	w.Header().Set("Location", "/runs/"+key)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// answers returns j's status and whether it answers a resubmission of
// its spec. A live or successful job does. A failed one does not pin its
// failure, so transient errors are retryable by resubmitting.
func answers(j *job) (JobStatus, bool) {
	st := j.snapshot()
	return st, st.State != StateFailed
}

// submitStream admits one stream-job submission. Stream jobs bypass the
// batch path's persistent cache on purpose: no warm lookup and no
// persistence (a long-lived run is not a cacheable result — only
// non-terminal progress exists while it matters). A live stream job
// still answers resubmissions with its status; a terminal one is
// re-admitted, replacing the finished job under the same content
// address (re-running a stream is the point of resubmitting one).
func (s *Server) submitStream(w http.ResponseWriter, key string, spec arch.Spec) {
	s.mu.Lock()
	if j, ok := s.jobs[key]; ok {
		if st := j.snapshot(); !st.Terminal() {
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.streamActive >= s.streamJobs() {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("stream jobs full: %d running (limit %d)", s.streamActive, s.streamJobs()))
		return
	}
	j := newJob(key, spec)
	s.jobs[key] = j
	s.streamActive++
	s.wg.Add(1)
	s.mu.Unlock()

	go s.runStreamJob(j)
	w.Header().Set("Location", "/runs/"+key)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

// runStreamJob executes one admitted stream job on its own goroutine
// (not the sched pool — a long-lived stream would pin a worker), feeding
// each progress window into the job so SSE watchers see live
// throughput. The outcome resolves the job but is never persisted.
func (s *Server) runStreamJob(j *job) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.streamActive--
		s.mu.Unlock()
	}()
	j.setRunning()
	start := time.Now()
	var lastElems int64
	progress := func(w arch.StreamWindow) {
		s.met.streamWindows.Inc()
		if d := w.Elems - lastElems; d > 0 {
			s.met.newElems.Add(d)
		}
		lastElems = w.Elems
		j.progress(w)
	}
	summary, rep, err := arch.RunSpecStream(s.runCtx, j.spec, progress)
	j.finish(runOutcome{summary: summary, report: rep}, err)
	s.recordOutcome(err, time.Since(start).Seconds())
}

// runJob executes one admitted job on the worker pool, persists the
// result, and resolves the job. The counters and the queue gauge move
// before the job turns terminal, so a client that sees the terminal
// status sees them too.
func (s *Server) runJob(j *job) {
	defer s.wg.Done()
	j.setRunning()
	start := time.Now()
	outs, err := sched.Map(s.runCtx, s.pool, 1, func(int) (runOutcome, error) {
		return s.execute(j)
	})
	s.recordOutcome(err, time.Since(start).Seconds())
	s.mu.Lock()
	s.active--
	s.mu.Unlock()
	var out runOutcome
	if err == nil {
		out = outs[0]
	}
	j.finish(out, err)
}

// execute runs one batch job's spec, or serves it from the persistent
// cache when another process has finished it since admission.
func (s *Server) execute(j *job) (runOutcome, error) {
	// Traced jobs bypass the persistent cache in both directions: a
	// cached entry has no trace to serve, and an entry persisted from a
	// traced run would claim coverage it doesn't have.
	if j.spec.Trace {
		col := obs.NewCollector()
		summary, rep, err := arch.RunSpec(obs.NewContext(s.runCtx, col), j.spec)
		if err != nil {
			return runOutcome{}, err
		}
		blob, err := col.ChromeJSON()
		if err != nil {
			return runOutcome{}, fmt.Errorf("serve: encoding trace: %w", err)
		}
		return runOutcome{summary: summary, report: rep, trace: blob}, nil
	}
	if s.cfg.Cache != nil {
		if e, ok := s.cfg.Cache.Get(j.id); ok {
			s.met.cacheHits.Inc()
			return runOutcome{summary: e.Summary, report: e.Report, cached: true}, nil
		}
	}
	summary, rep, err := arch.RunSpec(s.runCtx, j.spec)
	if err != nil {
		return runOutcome{}, err
	}
	if s.cfg.Cache != nil {
		e := &rescache.Entry{Spec: j.spec, Summary: summary, Report: rep, Created: time.Now().UTC()}
		if err := s.cfg.Cache.Put(j.id, e); err != nil {
			s.logger.Printf("serve: persist %s: %v", j.id[:12], err)
		}
	}
	return runOutcome{summary: summary, report: rep}, nil
}

// lookupJob finds the job for id in the job table or, failing that and
// when disk is set, revives it from the persistent cache if a prior
// process finished it; revived reports the latter. It returns nil when
// neither layer knows id.
func (s *Server) lookupJob(id string, disk bool) (j *job, revived bool) {
	s.mu.Lock()
	j = s.jobs[id]
	s.mu.Unlock()
	if j != nil || !disk || s.cfg.Cache == nil {
		return j, false
	}
	e, ok := s.cfg.Cache.Get(id)
	if !ok {
		s.met.cacheMisses.Inc()
		return nil, false
	}
	s.met.cacheHits.Inc()
	s.mu.Lock()
	if j := s.jobs[id]; j != nil { // lost a revival race; use the winner
		s.mu.Unlock()
		return j, false
	}
	j = newJob(id, e.Spec)
	j.completeCached(e)
	s.jobs[id] = j
	s.mu.Unlock()
	s.recordOutcome(nil, 0)
	return j, true
}

// handleStatus serves one job's current status.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, _ := s.lookupJob(r.PathValue("id"), true)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

// handleTrace serves the Chrome trace-event JSON of a finished traced
// job (one submitted with {"trace": true}). Load it in ui.perfetto.dev
// or chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, _ := s.lookupJob(r.PathValue("id"), true)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	blob := j.traceJSON()
	if blob == nil {
		st := j.snapshot()
		switch {
		case !j.spec.Trace:
			writeError(w, http.StatusNotFound, "run was not submitted with trace enabled")
		case !st.Terminal():
			writeError(w, http.StatusConflict, "run is still "+st.State+"; trace is available once it finishes")
		default:
			writeError(w, http.StatusNotFound, "run has no trace (it failed before producing one)")
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(blob)
}

// handleEvents streams one job's status transitions as server-sent
// events ("status" events carrying the JobStatus JSON), ending after
// the terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, _ := s.lookupJob(r.PathValue("id"), true)
	if j == nil {
		writeError(w, http.StatusNotFound, "no such run")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")

	// Keep-alive: when a job sits between transitions longer than the
	// interval (a long-lived stream between progress windows, a deep
	// queue), emit an SSE comment so proxies and idle timeouts keep the
	// connection open. Comments are invisible to event parsers.
	var keep <-chan time.Time
	if ka := s.keepAlive(); ka > 0 {
		t := time.NewTicker(ka)
		defer t.Stop()
		keep = t.C
	}
	for {
		st, changed := j.watch()
		if err := writeEvent(w, st); err != nil {
			return
		}
		fl.Flush()
		if st.Terminal() {
			if st.State == StateFailed {
				// A dedicated terminal error event, so SSE consumers can
				// register one onerror-style listener instead of parsing
				// every status; the data is the structured failure.
				writeErrorEvent(w, st) //nolint:errcheck // the stream ends either way
				fl.Flush()
			}
			return
		}
	wait:
		select {
		case <-changed:
		case <-keep:
			if _, err := fmt.Fprint(w, ": keep-alive\n\n"); err != nil {
				return
			}
			fl.Flush()
			goto wait
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent renders one SSE status event.
func writeEvent(w http.ResponseWriter, st JobStatus) error {
	blob, err := json.Marshal(st)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: status\ndata: %s\n\n", blob)
	return err
}

// sseError is the data payload of the terminal SSE error event: the
// failure message plus its structured classification.
type sseError struct {
	Error   string       `json:"error"`
	Failure *FailureInfo `json:"failure,omitempty"`
}

// writeErrorEvent renders the terminal SSE error event of a failed job.
func writeErrorEvent(w http.ResponseWriter, st JobStatus) error {
	blob, err := json.Marshal(sseError{Error: st.Error, Failure: st.Failure})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: error\ndata: %s\n\n", blob)
	return err
}

// Shutdown stops admitting jobs and drains the in-flight ones. If ctx
// expires first, the remaining runs are cancelled and Shutdown returns
// ctx.Err() once they unwind. The HTTP listener is the caller's to
// close (http.Server.Shutdown); this drains the work behind it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	pending := s.active
	s.mu.Unlock()
	s.logger.Printf("serve: draining %d in-flight jobs", pending)
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logger.Printf("serve: drained")
		return nil
	case <-ctx.Done():
		s.stopRuns()
		<-done
		s.logger.Printf("serve: drain deadline expired, cancelled remaining jobs")
		return ctx.Err()
	}
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil && !errors.Is(err, http.ErrHandlerTimeout) {
		// The connection is gone; nothing useful to do.
		_ = err
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
