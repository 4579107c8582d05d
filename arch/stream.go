package arch

import (
	"context"
	"fmt"
)

// App kinds: the two program shapes the registry serves. A batch app
// runs to one result (the paper's archetypes as originally reproduced);
// a stream app is long-lived — elements flow through a stage graph and
// progress is observable in windows while it runs (internal/stream).
const (
	// KindBatch is the default: one input, one output, one Report.
	KindBatch = "batch"
	// KindStream marks a streaming app: registered with RunStream, run
	// as a long-lived job with windowed progress.
	KindStream = "stream"
)

// KindNames returns the valid app kind names, sorted.
func KindNames() []string { return []string{KindBatch, KindStream} }

// StreamWindow is one progress window of a streaming run: the visible
// heartbeat of a long-lived job. Windows are observations on the host
// wall clock, not part of the run's deterministic cost accounting.
type StreamWindow struct {
	// Index is the 1-based window number.
	Index int `json:"window"`
	// Elems is the cumulative count of elements through the stream's
	// sink.
	Elems int64 `json:"elems"`
	// Elapsed is wall-clock seconds since the stream started.
	Elapsed float64 `json:"elapsed"`
	// Rate is elements per second within this window.
	Rate float64 `json:"rate"`
}

// StreamObserver receives progress windows from a streaming run. It is
// called synchronously from the stream's sink: a blocking observer
// backpressures the pipeline (which is what lets a slow consumer of the
// progress feed slow the stream instead of growing a queue).
type StreamObserver func(StreamWindow)

// RunAppStream resolves and runs a registered streaming application,
// exactly as RunApp does for its kind, additionally delivering progress
// windows to obs (nil is allowed: the app runs unobserved). It rejects
// batch apps: their runs have no stream to observe.
func RunAppStream(ctx context.Context, name string, obs StreamObserver, opts ...Option) (string, Report, error) {
	a, err := ResolveApp(name)
	if err != nil {
		return "", Report{}, err
	}
	if a.KindName() != KindStream {
		return "", Report{}, fmt.Errorf("app %q is a %s app, not %s", name, a.KindName(), KindStream)
	}
	s := NewSettings(opts...)
	if s.Size <= 0 {
		s.Size = a.DefaultSize
	}
	if err := s.Validate(); err != nil {
		return "", Report{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return a.RunStream(ctx, s, obs)
}

// RunSpecStream canonicalizes sp — which must name a streaming app —
// and runs it with progress windows delivered to obs: the execution
// entry point for long-lived stream jobs (the archetype service's
// streaming job bodies).
func RunSpecStream(ctx context.Context, sp Spec, obs StreamObserver) (string, Report, error) {
	c, err := sp.Canonical()
	if err != nil {
		return "", Report{}, err
	}
	if c.Kind != KindStream {
		return "", Report{}, fmt.Errorf("app %q is a %s app, not %s", c.App, c.Kind, KindStream)
	}
	s, err := c.Settings()
	if err != nil {
		return "", Report{}, err
	}
	a, err := ResolveApp(c.App)
	if err != nil {
		return "", Report{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return a.RunStream(ctx, s, obs)
}
