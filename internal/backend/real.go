package backend

import (
	"context"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Real returns the shared-memory backend: SPMD processes run as goroutines
// exchanging data through native channels at hardware speed, with no
// virtual pricing. Compute charges are discarded (real computation takes
// real time), clocks read elapsed wall-clock time, and the makespan is the
// run's wall-clock duration. Messages and bytes are counted exactly as the
// simulator counts them, so communication volume is comparable across
// backends and computational results are bit-identical for deterministic
// programs.
func Real() Runner {
	return realRunner{}
}

// RealWithClock returns a Real backend reading time from the given
// function (monotonic seconds). Tests inject a fake clock to keep
// wall-clock results deterministic.
func RealWithClock(clock func() float64) Runner {
	return realRunner{clock: clock}
}

// realRunner's zero clock means the host's monotonic clock.
type realRunner struct {
	clock func() float64
}

func (r realRunner) Name() string { return "real" }

func (r realRunner) Virtual() bool { return false }

func (r realRunner) NewTransport(ctx context.Context, n int, m *machine.Model) (Transport, error) {
	var elapsed func() float64
	if r.clock != nil {
		start := r.clock()
		elapsed = func() float64 { return r.clock() - start }
	} else {
		// time.Since uses the monotonic clock reading: immune to NTP
		// steps and slews, at full nanosecond resolution.
		start := time.Now()
		elapsed = func() float64 { return time.Since(start).Seconds() }
	}
	return &realTransport{mailbox: newMailbox(ctx, n, true), elapsed: elapsed, rec: obs.RunRecorder(ctx, n, "real")}, nil
}

// realTransport carries messages at native channel speed and meters the
// run with the host clock.
type realTransport struct {
	*mailbox
	// elapsed reads seconds since the transport (the run) was created.
	elapsed func() float64
	rec     *obs.Recorder
}

func (t *realTransport) Recorder() *obs.Recorder { return t.rec }

// Charge discards modeled computation: on real hardware the computation
// itself already took the time.
func (t *realTransport) Charge(rank int, sec float64) {}

// SetResident is a no-op: the host's own memory system provides any paging
// behavior for real.
func (t *realTransport) SetResident(rank int, bytes float64) {}

func (t *realTransport) Clock(rank int) float64 { return t.elapsed() }

// Idle cannot advance a wall clock; waiting happens for real in Recv.
func (t *realTransport) Idle(rank int, at float64) {}

func (t *realTransport) Send(src, dst, tag int, data any, bytes int) {
	var start int64
	if t.rec != nil {
		start = t.rec.Now()
	}
	if src != dst {
		t.count(src, bytes)
	}
	t.push(src, dst, message{tag: tag, data: data, bytes: bytes})
	if t.rec != nil {
		t.rec.Emit(src, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: obs.KindSend})
	}
}

func (t *realTransport) Recv(src, dst, tag int) any {
	if t.rec == nil {
		return t.pop(src, dst, tag).data
	}
	start := t.rec.Now()
	msg := t.pop(src, dst, tag)
	t.rec.Emit(dst, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(msg.bytes), Peer: int32(src), Tag: int32(tag), Kind: obs.KindRecv})
	return msg.data
}

func (t *realTransport) RecvAny(dst, tag int) (int, any) {
	if t.rec == nil {
		src, msg := t.popAny(dst, tag)
		return src, msg.data
	}
	start := t.rec.Now()
	src, msg := t.popAny(dst, tag)
	t.rec.Emit(dst, obs.Event{T: start, Dur: t.rec.Now() - start, Bytes: int64(msg.bytes), Peer: int32(src), Tag: int32(tag), Kind: obs.KindRecvAny})
	return src, msg.data
}

func (t *realTransport) Finish() Result {
	elapsed := t.elapsed()
	res := Result{Makespan: elapsed, Clocks: make([]float64, t.n)}
	for i := range res.Clocks {
		res.Clocks[i] = elapsed
	}
	res.Msgs, res.Bytes = t.totals()
	t.reportParks(t.rec)
	t.release()
	return res
}

func init() { Register(Real()) }
