package serve

import (
	"context"
	"errors"
	"strings"
	"sync"
	"time"

	"repro/arch"
	"repro/internal/rescache"
)

// Job lifecycle states.
const (
	// StateQueued: admitted, waiting for a worker slot.
	StateQueued = "queued"
	// StateRunning: executing.
	StateRunning = "running"
	// StateDone: finished with a result.
	StateDone = "done"
	// StateFailed: finished with an error.
	StateFailed = "failed"
)

// Failure reasons: the coarse classification of why a job failed, chosen
// so a client can decide mechanically whether resubmitting can help.
const (
	// ReasonCanceled: the run was cancelled (client disconnect propagated,
	// or the server's drain deadline expired mid-run).
	ReasonCanceled = "canceled"
	// ReasonBackend: the execution substrate failed — workers that never
	// attached, a lost world, an exhausted recovery budget. The spec is
	// fine; the run environment was not.
	ReasonBackend = "backend"
	// ReasonSpec: the spec named something the registry cannot satisfy
	// (unknown app/backend/machine, unsupported backend for the app).
	ReasonSpec = "spec"
	// ReasonInternal: anything else — a failure the server cannot
	// attribute, assumed permanent for the same input.
	ReasonInternal = "internal"
)

// FailureInfo is the structured failure a terminal failed status carries:
// the coarse reason plus whether resubmitting the identical spec can
// plausibly succeed. The server already re-admits failed specs on
// resubmission (failures are not pinned in the job table), so Retryable
// is the client's signal for whether doing so is worthwhile.
type FailureInfo struct {
	// Reason is one of canceled, backend, spec, internal.
	Reason string `json:"reason"`
	// Retryable reports whether the failure is plausibly transient:
	// cancelled runs and substrate failures are; spec errors are not.
	Retryable bool `json:"retryable"`
}

// classifyFailure maps a run error onto the structured failure taxonomy.
// Resolve-time errors carry the registry's "(have: ...)" listings;
// substrate errors are prefixed by the backend that raised them.
func classifyFailure(err error) *FailureInfo {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return &FailureInfo{Reason: ReasonCanceled, Retryable: true}
	case strings.Contains(err.Error(), "(have:"):
		return &FailureInfo{Reason: ReasonSpec, Retryable: false}
	case strings.HasPrefix(err.Error(), "dist:") || strings.Contains(err.Error(), "worker"):
		return &FailureInfo{Reason: ReasonBackend, Retryable: true}
	default:
		return &FailureInfo{Reason: ReasonInternal, Retryable: false}
	}
}

// JobStatus is one job's externally visible state: what GET /runs/{id}
// returns and what each SSE event carries.
type JobStatus struct {
	// ID is the job's content address — the SHA-256 of its canonical
	// spec — so identical experiments have identical IDs by
	// construction.
	ID string `json:"id"`
	// State is one of queued, running, done, failed.
	State string `json:"state"`
	// Spec is the canonical spec the job answers.
	Spec arch.Spec `json:"spec"`
	// Summary is the app's verification summary (terminal states only).
	Summary string `json:"summary,omitempty"`
	// Report is the run's full cost report (state done only).
	Report *arch.Report `json:"report,omitempty"`
	// Error is the failure message (state failed only).
	Error string `json:"error,omitempty"`
	// Failure is the structured classification of Error (state failed
	// only): the coarse reason and whether a resubmission can plausibly
	// succeed.
	Failure *FailureInfo `json:"failure,omitempty"`
	// Cached reports that the result came from the persistent result
	// cache rather than an execution in this process.
	Cached bool `json:"cached"`
	// Elapsed is seconds from submission to completion (or to now for
	// live jobs).
	Elapsed float64 `json:"elapsed"`
	// Kind is the spec's app kind ("batch" or "stream"), duplicated out
	// of Spec so clients can dispatch without canonicalizing.
	Kind string `json:"kind,omitempty"`
	// Stream is the latest progress window of a running stream job (and
	// the final one on its terminal status).
	Stream *StreamProgress `json:"stream,omitempty"`
}

// StreamProgress is a stream job's latest progress window: the live
// throughput view a long-lived job exposes while it runs.
type StreamProgress struct {
	// Window is the 1-based progress-window number.
	Window int `json:"window"`
	// Elems is the cumulative count of elements through the stream's
	// sink.
	Elems int64 `json:"elems"`
	// Elapsed is wall-clock seconds of streaming so far.
	Elapsed float64 `json:"elapsed"`
	// Rate is elements per second within the latest window.
	Rate float64 `json:"rate"`
}

// Terminal reports whether the status is final.
func (st JobStatus) Terminal() bool { return st.State == StateDone || st.State == StateFailed }

// job is the server-side state of one admitted (or cache-revived) run.
type job struct {
	id      string
	spec    arch.Spec // canonical
	created time.Time

	mu       sync.Mutex
	state    string
	summary  string
	report   arch.Report
	errMsg   string
	failure  *FailureInfo
	cached   bool
	stream   *StreamProgress
	trace    []byte
	finished time.Time
	// changed is closed and replaced on every state transition; watch
	// hands it to SSE streams so they wake exactly when the status
	// moves.
	changed chan struct{}
}

func newJob(id string, spec arch.Spec) *job {
	return &job{
		id:      id,
		spec:    spec,
		created: time.Now(),
		state:   StateQueued,
		changed: make(chan struct{}),
	}
}

// transition mutates the job under its lock and wakes every watcher.
func (j *job) transition(f func()) {
	j.mu.Lock()
	f()
	close(j.changed)
	j.changed = make(chan struct{})
	j.mu.Unlock()
}

// setRunning marks the job executing. A job that already finished
// (cache-completed at admission) stays terminal.
func (j *job) setRunning() {
	j.transition(func() {
		if j.state == StateQueued {
			j.state = StateRunning
		}
	})
}

// finish resolves the job from a run outcome.
func (j *job) finish(out runOutcome, err error) {
	j.transition(func() {
		j.finished = time.Now()
		if err != nil {
			j.state = StateFailed
			j.errMsg = err.Error()
			j.failure = classifyFailure(err)
			return
		}
		j.state = StateDone
		j.summary = out.summary
		j.report = out.report
		j.cached = out.cached
		j.trace = out.trace
	})
}

// traceJSON returns the job's retained Chrome trace, nil if there is
// none (untraced spec, or not finished yet).
func (j *job) traceJSON() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace
}

// progress records a stream job's latest progress window and wakes
// every watcher, so each window is one SSE event.
func (j *job) progress(w arch.StreamWindow) {
	j.transition(func() {
		j.stream = &StreamProgress{Window: w.Index, Elems: w.Elems, Elapsed: w.Elapsed, Rate: w.Rate}
	})
}

// completeCached resolves the job directly from a persistent cache
// entry, never having run.
func (j *job) completeCached(e *rescache.Entry) {
	j.transition(func() {
		j.state = StateDone
		j.summary = e.Summary
		j.report = e.Report
		j.cached = true
		j.finished = time.Now()
	})
}

// snapshot renders the job's current JobStatus.
func (j *job) snapshot() JobStatus {
	st, _ := j.watch()
	return st
}

// watch returns the current status together with the channel that
// closes on the job's next transition.
func (j *job) watch() (JobStatus, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.id,
		State:   j.state,
		Spec:    j.spec,
		Summary: j.summary,
		Error:   j.errMsg,
		Failure: j.failure,
		Cached:  j.cached,
		Kind:    j.spec.Kind,
	}
	if j.stream != nil {
		p := *j.stream
		st.Stream = &p
	}
	if j.state == StateDone {
		rep := j.report
		st.Report = &rep
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.Elapsed = end.Sub(j.created).Seconds()
	return st, j.changed
}
