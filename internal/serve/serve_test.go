package serve_test

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/arch"
	_ "repro/arch/apps"
	"repro/internal/rescache"
	"repro/internal/serve"
)

// The "servetest" app counts its executions and can be gated, so tests
// can observe exactly how many times the service really ran the work
// and can hold a job in flight deliberately. Its result is a real SPMD
// run, so reports carry genuine meters.
var (
	testRuns atomic.Int32
	gateMu   sync.Mutex
	gate     chan struct{}
)

// holdRuns gates servetest executions until the returned release func.
func holdRuns() (release func()) {
	g := make(chan struct{})
	gateMu.Lock()
	gate = g
	gateMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			gateMu.Lock()
			gate = nil
			gateMu.Unlock()
			close(g)
		})
	}
}

func init() {
	prog := arch.SPMDRoot(func(p *arch.Proc, size int) int {
		if p.Rank() != 0 {
			p.Send(0, 1, int32(p.Rank()))
			return 0
		}
		sum := size
		for src := 1; src < p.N(); src++ {
			sum += int(p.Recv(src, 1).(int32))
		}
		return sum
	})
	arch.Register(arch.App{
		Name:        "servetest",
		Desc:        "execution-counting test app for the serve package",
		DefaultSize: 64,
		Run: func(ctx context.Context, s arch.Settings) (string, arch.Report, error) {
			testRuns.Add(1)
			gateMu.Lock()
			g := gate
			gateMu.Unlock()
			if g != nil {
				select {
				case <-g:
				case <-ctx.Done():
					return "", arch.Report{}, ctx.Err()
				}
			}
			if s.Size == 666 {
				return "", arch.Report{}, fmt.Errorf("servetest: induced failure")
			}
			sum, rep, err := arch.RunWith(ctx, prog, s, s.Size)
			if err != nil {
				return "", rep, err
			}
			return fmt.Sprintf("servetest sum %d", sum), rep, nil
		},
	})
}

// newService boots a Server over httptest and returns it with a client.
func newService(t *testing.T, cfg serve.Config) (*serve.Server, *serve.Client) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, &serve.Client{Base: ts.URL, Poll: 5 * time.Millisecond}
}

func openCache(t *testing.T, dir string) *rescache.Cache {
	t.Helper()
	c, err := rescache.Open(dir)
	if err != nil {
		t.Fatalf("rescache.Open: %v", err)
	}
	return c
}

// TestAppsEndpoint: GET /apps lists the registry, including the test
// app, with its backends.
func TestAppsEndpoint(t *testing.T) {
	_, c := newService(t, serve.Config{})
	apps, err := c.Apps(context.Background())
	if err != nil {
		t.Fatalf("Apps: %v", err)
	}
	byName := map[string]serve.AppInfo{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	for _, want := range []string{"mergesort", "fft", "poisson", "servetest"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("GET /apps missing %q", want)
		}
	}
	if got := byName["servetest"].DefaultSize; got != 64 {
		t.Errorf("servetest defaultSize = %d, want 64", got)
	}
}

// TestSubmitRejectsBadSpecs: malformed JSON, unknown fields, and
// unresolvable names are 400s with the facade's error text.
func TestSubmitRejectsBadSpecs(t *testing.T) {
	_, c := newService(t, serve.Config{})
	ctx := context.Background()
	cases := []struct {
		name string
		sp   arch.Spec
		want string
	}{
		{"unknown app", arch.Spec{App: "nope"}, "unknown app"},
		{"unknown backend", arch.Spec{App: "mergesort", Backend: "quantum"}, "unknown backend"},
		{"unknown mode", arch.Spec{App: "mergesort", Mode: "turbo"}, "unknown mode"},
	}
	for _, tc := range cases {
		_, err := c.Submit(ctx, tc.sp)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Submit err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
	resp, err := http.Post(c.Base+"/runs", "application/json", strings.NewReader(`{"app": "mergesort", "turbo": true}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status = %d, want 400", resp.StatusCode)
	}
	if _, err := c.Status(ctx, "definitely-not-a-key"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("Status(bogus) err = %v, want 404", err)
	}
}

// TestSubmitRejectsOverCapProcs: a spec asking a process-per-rank
// backend for more processes than arch.MaxProcessProcs, or an in-process
// backend for more than arch.MaxInProcessProcs, is a 400 whose body names
// the cap, before anything is admitted. The in-process one would otherwise
// ask for about 400 GB of inbox rings and kill the daemon.
func TestSubmitRejectsOverCapProcs(t *testing.T) {
	_, c := newService(t, serve.Config{})
	for _, tc := range []struct {
		body string
		cap  int
	}{
		{`{"app":"poisson","size":1048576,"procs":1048576,"backend":"dist"}`, arch.MaxProcessProcs},
		{`{"app":"mergesort","procs":100000,"backend":"sim"}`, arch.MaxInProcessProcs},
	} {
		resp, err := http.Post(c.Base+"/runs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.body, resp.StatusCode, msg)
		}
		if want := fmt.Sprintf("cap of %d", tc.cap); !strings.Contains(string(msg), want) {
			t.Errorf("%s: body %q does not name the cap (want %q)", tc.body, msg, want)
		}
	}
}

// TestEndToEnd is the acceptance test: two concurrent identical
// submissions run the work once; a post-restart resubmission is served
// from the persistent cache without re-running; and the served result
// is bit-identical to a direct arch.RunApp with identical meters.
func TestEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, c := newService(t, serve.Config{Cache: openCache(t, dir)})
	ctx := context.Background()
	sp := arch.Spec{App: "servetest", Size: 999, Procs: 4}
	before := testRuns.Load()

	// Phase 1: two concurrent identical submissions, one execution.
	release := holdRuns()
	st1c := make(chan serve.JobStatus, 2)
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			st, err := c.Submit(ctx, sp)
			errc <- err
			st1c <- st
		}()
	}
	sts := make([]serve.JobStatus, 2)
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Fatalf("Submit: %v", err)
		}
		sts[i] = <-st1c
	}
	if sts[0].ID != sts[1].ID {
		t.Fatalf("identical specs got different job IDs: %s vs %s", sts[0].ID, sts[1].ID)
	}
	release()
	final, err := c.Wait(ctx, sts[0].ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job state = %s (%s), want done", final.State, final.Error)
	}
	if got := testRuns.Load() - before; got != 1 {
		t.Fatalf("two identical submissions ran the work %d times, want 1", got)
	}
	if final.Cached {
		t.Error("first execution reported Cached, want cold run")
	}

	// Bit-identical to the direct facade call, meters included.
	wantSummary, wantRep, err := arch.RunApp(ctx, "servetest",
		arch.WithSize(999), arch.WithProcs(4))
	if err != nil {
		t.Fatalf("direct RunApp: %v", err)
	}
	testRuns.Add(-1) // the direct run above is not service-side work
	if final.Summary != wantSummary {
		t.Errorf("summary = %q, want %q", final.Summary, wantSummary)
	}
	if final.Report == nil || *final.Report != wantRep {
		t.Errorf("report = %+v, want %+v", final.Report, wantRep)
	}

	// Phase 2: restart — a fresh Server over the same cache directory
	// answers the resubmission terminally, from disk, without running.
	_, c2 := newService(t, serve.Config{Cache: openCache(t, dir)})
	before = testRuns.Load()
	st2, err := c2.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("post-restart Submit: %v", err)
	}
	if !st2.Terminal() || st2.State != serve.StateDone {
		t.Fatalf("post-restart submission state = %s, want immediately done", st2.State)
	}
	if !st2.Cached {
		t.Error("post-restart submission not marked Cached")
	}
	if got := testRuns.Load() - before; got != 0 {
		t.Errorf("post-restart submission re-ran the work %d times, want 0", got)
	}
	if st2.Summary != wantSummary || st2.Report == nil || *st2.Report != wantRep {
		t.Errorf("cached result drifted: %q %+v, want %q %+v", st2.Summary, st2.Report, wantSummary, wantRep)
	}

	// Phase 3: a third server can also revive the job by ID alone.
	_, c3 := newService(t, serve.Config{Cache: openCache(t, dir)})
	st3, err := c3.Status(ctx, st2.ID)
	if err != nil {
		t.Fatalf("post-restart Status by ID: %v", err)
	}
	if st3.State != serve.StateDone || !st3.Cached || st3.Summary != wantSummary {
		t.Errorf("revived status = %+v, want cached done", st3)
	}
}

// TestQueueOverloadReturns429: submissions past QueueDepth are refused
// with 429 while the queue is full and accepted after it drains.
func TestQueueOverloadReturns429(t *testing.T) {
	_, c := newService(t, serve.Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()
	release := holdRuns()
	st, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 1001, Procs: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, err = c.Submit(ctx, arch.Spec{App: "servetest", Size: 1002, Procs: 2})
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Errorf("overload Submit err = %v, want 429", err)
	}
	// The same spec as the in-flight job is NOT an overload: it maps to
	// the existing job instead of a new admission.
	dup, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 1001, Procs: 2})
	if err != nil || dup.ID != st.ID {
		t.Errorf("duplicate Submit = %+v, %v; want existing job %s", dup, err, st.ID)
	}
	release()
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if _, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 1002, Procs: 2}); err != nil {
		t.Errorf("post-drain Submit err = %v, want admitted", err)
	}
}

// TestEventsStream: the SSE endpoint emits status events ending in a
// terminal one.
func TestEventsStream(t *testing.T) {
	_, c := newService(t, serve.Config{})
	ctx := context.Background()
	release := holdRuns()
	st, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 1003, Procs: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/runs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		release()
	}()
	sc := bufio.NewScanner(resp.Body)
	var events []serve.JobStatus
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev serve.JobStatus
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("no SSE events received")
	}
	last := events[len(events)-1]
	if !last.Terminal() || last.State != serve.StateDone {
		t.Errorf("final event state = %s, want done", last.State)
	}
	for _, ev := range events {
		if ev.ID != st.ID {
			t.Errorf("event for job %s, want %s", ev.ID, st.ID)
		}
	}
}

// TestEventsStreamTerminalError: a failing job's SSE feed ends with a
// dedicated error event whose data carries the message and the
// structured failure classification.
func TestEventsStreamTerminalError(t *testing.T) {
	_, c := newService(t, serve.Config{})
	ctx := context.Background()
	st, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 666, Procs: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/runs/"+st.ID+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var names, payloads []string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			names = append(names, strings.TrimPrefix(line, "event: "))
		case strings.HasPrefix(line, "data: "):
			payloads = append(payloads, strings.TrimPrefix(line, "data: "))
		}
	}
	if len(names) == 0 || names[len(names)-1] != "error" {
		t.Fatalf("event names = %v, want a terminal error event", names)
	}
	var ev struct {
		Error   string             `json:"error"`
		Failure *serve.FailureInfo `json:"failure"`
	}
	if err := json.Unmarshal([]byte(payloads[len(payloads)-1]), &ev); err != nil {
		t.Fatalf("bad error event payload: %v", err)
	}
	if !strings.Contains(ev.Error, "induced failure") {
		t.Errorf("error event message = %q, want the induced failure", ev.Error)
	}
	if ev.Failure == nil || ev.Failure.Reason != serve.ReasonInternal || ev.Failure.Retryable {
		t.Errorf("error event failure = %+v, want {internal false}", ev.Failure)
	}
}

// TestShutdownDrains: Shutdown waits for in-flight jobs (they complete,
// not cancel), refuses new submissions with 503 while draining, and
// returns nil on a clean drain.
func TestShutdownDrains(t *testing.T) {
	s, c := newService(t, serve.Config{})
	ctx := context.Background()
	release := holdRuns()
	st, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 1004, Procs: 2})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	shutdownErr := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(dctx)
	}()
	time.Sleep(30 * time.Millisecond) // let Shutdown flip draining
	if _, err := c.Submit(ctx, arch.Spec{App: "servetest", Size: 1005, Procs: 2}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("Submit while draining err = %v, want 503", err)
	}
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v before the in-flight job finished", err)
	case <-time.After(30 * time.Millisecond):
	}
	release()
	if err := <-shutdownErr; err != nil {
		t.Errorf("Shutdown = %v, want nil (clean drain)", err)
	}
	final, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatalf("Status after drain: %v", err)
	}
	if final.State != serve.StateDone {
		t.Errorf("drained job state = %s (%s), want done", final.State, final.Error)
	}
}

// TestFailedRunReported: an app error surfaces as state failed with the
// error text, is not persisted to the cache, and a resubmission retries
// instead of pinning the failure.
func TestFailedRunReported(t *testing.T) {
	dir := t.TempDir()
	_, c := newService(t, serve.Config{Cache: openCache(t, dir)})
	ctx := context.Background()
	sp := arch.Spec{App: "servetest", Size: 666, Procs: 2}
	before := testRuns.Load()
	st, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if final.State != serve.StateFailed || !strings.Contains(final.Error, "induced failure") {
		t.Fatalf("final = %+v, want failed with induced failure", final)
	}
	if final.Report != nil {
		t.Error("failed job carries a report")
	}
	if final.Failure == nil || final.Failure.Reason != serve.ReasonInternal || final.Failure.Retryable {
		t.Errorf("final.Failure = %+v, want {internal false}", final.Failure)
	}
	// The failure was not persisted: a fresh server over the same cache
	// directory re-runs rather than serving a cached failure.
	_, c2 := newService(t, serve.Config{Cache: openCache(t, dir)})
	st2, err := c2.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("post-restart Submit: %v", err)
	}
	if st2.Cached {
		t.Error("failed result was served from the persistent cache")
	}
	// Its execution is counted below, so it must have happened by then.
	if _, err := c2.Wait(ctx, st2.ID); err != nil {
		t.Fatalf("post-restart Wait: %v", err)
	}
	// A resubmission on the original server retries (new execution)
	// instead of returning the pinned failed job.
	st3, err := c.Submit(ctx, sp)
	if err != nil {
		t.Fatalf("retry Submit: %v", err)
	}
	if fin3, err := c.Wait(ctx, st3.ID); err != nil || fin3.State != serve.StateFailed {
		t.Fatalf("retry Wait = %+v, %v", fin3, err)
	}
	if got := testRuns.Load() - before; got < 3 {
		t.Errorf("failing spec ran %d times across three submissions, want 3 (no failure caching)", got)
	}
}
