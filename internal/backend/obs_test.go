package backend_test

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/spmd"
)

// TestTraceParity pins the recorder's logical view of a run: the same
// deterministic program must yield the same multiset of communication
// events — (kind, rank, peer, tag, bytes) — on every backend. Timestamps
// and durations differ (virtual versus wall clock); what happened must
// not. Self-sends are part of the contract: every backend records them
// like any other message.
func TestTraceParity(t *testing.T) {
	const np = 4
	model := machine.IBMSP()
	prog := func(p *spmd.Proc) {
		r, n := p.Rank(), p.N()
		// One neighbor round with per-rank payload sizes, one self-send,
		// and a barrier: exercises send, recv, and barrier events.
		payload := make([]int32, 3+r)
		for i := range payload {
			payload[i] = int32(r*10 + i)
		}
		p.Send((r+1)%n, 200, payload)
		_ = spmd.Recv[[]int32](p, (r+n-1)%n, 200)
		p.Send(r, 201, int32(r))
		_ = spmd.Recv[int32](p, r, 201)
	}

	logical := func(b backend.Runner) []string {
		col := obs.NewCollector()
		ctx := obs.NewContext(context.Background(), col)
		if _, err := core.Run(ctx, b, np, model, prog); err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		rec := col.Last()
		if rec == nil {
			t.Fatalf("%s: no recorder registered", b.Name())
		}
		var out []string
		for rank := 0; rank < np; rank++ {
			ev, dropped := rec.Events(rank)
			if dropped != 0 {
				t.Fatalf("%s: rank %d dropped %d events", b.Name(), rank, dropped)
			}
			for _, e := range ev {
				switch e.Kind {
				case obs.KindSend, obs.KindRecv, obs.KindRecvAny:
					out = append(out, fmt.Sprintf("%s r%d p%d t%d b%d", e.Kind, e.Rank, e.Peer, e.Tag, e.Bytes))
				}
			}
		}
		sort.Strings(out)
		return out
	}

	backends := allBackends()
	want := logical(backends[0])
	if len(want) == 0 {
		t.Fatal("sim recorded no communication events")
	}
	for _, b := range backends[1:] {
		got := logical(b)
		if len(got) != len(want) {
			t.Fatalf("%s recorded %d communication events, sim %d:\nsim:  %v\n%s: %v",
				b.Name(), len(got), len(want), want, b.Name(), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s event multiset diverges from sim at %q (sim has %q)", b.Name(), got[i], want[i])
			}
		}
	}
}

// TestParksReachSummary: a traced run's summary carries the park counts
// the in-process fabric hands over at Finish, and dist/elastic, whose
// ranks block on connection reads, report none. On one processor no world
// spins and only one rank runs at a time, so whichever rank goes first
// finds its peer's message missing and parks — unless the scheduler
// preempts it at just the wrong instruction, hence the retries.
func TestParksReachSummary(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	prog := func(p *spmd.Proc) {
		peer := 1 - p.Rank()
		if p.Rank() == 0 {
			p.Send(peer, 300, int32(1))
			_ = spmd.Recv[int32](p, peer, 301)
		} else {
			_ = spmd.Recv[int32](p, peer, 300)
			p.Send(peer, 301, int32(2))
		}
	}
	for _, b := range allBackends() {
		mailboxed := b.Name() == "sim" || b.Name() == "real"
		attempts := 1
		if mailboxed {
			attempts = 10
		}
		var parks int64
		for ; attempts > 0 && parks == 0; attempts-- {
			col := obs.NewCollector()
			if _, err := core.Run(obs.NewContext(context.Background(), col), b, 2, machine.IBMSP(), prog); err != nil {
				t.Fatalf("%s: %v", b.Name(), err)
			}
			for _, rs := range col.Last().Summary().Ranks {
				parks += rs.Parks
			}
		}
		// A receive parks at most once per message here: nothing else is
		// ever pushed into its inbox.
		if mailboxed && (parks < 1 || parks > 2) {
			t.Errorf("%s: %d parks for two blocking receives on one processor, want 1 or 2", b.Name(), parks)
		}
		if !mailboxed && parks != 0 {
			t.Errorf("%s: %d parks from a transport that has no mailbox", b.Name(), parks)
		}
	}
}

// TestDisabledRecorderIsNil pins the zero-cost-off contract at the seam:
// a run whose context carries no collector must hand every transport a
// nil recorder, and a nil recorder must swallow everything without
// allocating.
func TestDisabledRecorderIsNil(t *testing.T) {
	for _, b := range allBackends() {
		tr, err := b.NewTransport(context.Background(), 2, machine.IBMSP())
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if rec := tr.Recorder(); rec != nil {
			t.Fatalf("%s: recorder without a collector context = %v, want nil", b.Name(), rec)
		}
		// Drain the transport so fabrics and worker processes release.
		done := make(chan struct{})
		go func() {
			defer close(done)
			if d, ok := tr.(backend.Driver); ok {
				_ = d.Drive(func(rank int) error { return nil })
			}
			tr.Finish()
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: transport did not finish", b.Name())
		}
	}
}
