package obs

import (
	"context"
	"sync"
	"time"
)

// maxRuns bounds a collector's memory when it wraps a whole figure
// sweep: past this many runs new recorders are refused (the run
// proceeds untraced) and DroppedRuns reports how many.
const maxRuns = 256

// Collector aggregates the recorders of every run executed under one
// traced scope (one archdemo invocation, one archbench sweep, one
// traced archserve job). All recorders share the collector's epoch so
// their wall-clock events land on a single timeline, and the collector
// carries its own system ring for events that belong to no single run
// (scheduler enqueue/execute).
//
// A nil *Collector is valid and inert.
type Collector struct {
	// RingSize overrides the per-rank ring capacity (default 8192).
	// Set before any run starts.
	RingSize int

	mu          sync.Mutex
	epoch       time.Time
	runs        []*Recorder
	droppedRuns int
	sys         ring
}

// NewCollector returns an empty collector whose epoch is now.
func NewCollector() *Collector {
	return &Collector{epoch: time.Now()}
}

// NewRecorder registers and returns a recorder for a run with n ranks.
// Returns nil (run proceeds untraced) once the run cap is reached.
func (c *Collector) NewRecorder(n int, label string) *Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) >= maxRuns {
		c.droppedRuns++
		return nil
	}
	rcap := c.RingSize
	if rcap <= 0 {
		rcap = ringCapDefault
	}
	rec := &Recorder{label: label, n: n, epoch: c.epoch, ringCap: rcap, rings: make([]ring, n), parks: make([]int64, n)}
	c.runs = append(c.runs, rec)
	return rec
}

// Emit records a collector-level event (scheduler activity) on the
// collector's own system ring, stamping e.T with the current collector
// time when the caller left it zero. Safe from any goroutine.
func (c *Collector) Emit(e Event) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e.T == 0 {
		e.T = int64(time.Since(c.epoch))
	}
	c.sys.write(ringCapDefault, e)
	c.mu.Unlock()
}

// Now returns nanoseconds since the collector's epoch, or 0 on a nil
// collector. Callers use it to build spans for Emit.
func (c *Collector) Now() int64 {
	if c == nil {
		return 0
	}
	return int64(time.Since(c.epoch))
}

// Runs returns the registered recorders in registration order.
func (c *Collector) Runs() []*Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Recorder, len(c.runs))
	copy(out, c.runs)
	return out
}

// Last returns the most recently registered recorder, or nil.
func (c *Collector) Last() *Recorder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.runs) == 0 {
		return nil
	}
	return c.runs[len(c.runs)-1]
}

// DroppedRuns reports how many runs were refused a recorder by the
// run cap.
func (c *Collector) DroppedRuns() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.droppedRuns
}

// SysEvents returns the collector-level (scheduler) events.
func (c *Collector) SysEvents() []Event {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ev, _ := c.sys.events()
	return ev
}

type ctxKey struct{}

// NewContext returns ctx carrying c. Transports created under this
// context (the context handed to backend.Runner.NewTransport flows from
// arch through core and spmd unchanged) record into c.
func NewContext(ctx context.Context, c *Collector) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the collector carried by ctx, or nil.
func FromContext(ctx context.Context) *Collector {
	c, _ := ctx.Value(ctxKey{}).(*Collector)
	return c
}

// RunRecorder is the transport-side seam: it returns a recorder for an
// n-rank run if ctx carries a collector, and nil — the disabled, free
// case — otherwise. Every backend's NewTransport calls this once.
func RunRecorder(ctx context.Context, n int, label string) *Recorder {
	return FromContext(ctx).NewRecorder(n, label)
}
