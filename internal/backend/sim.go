package backend

import (
	"context"

	"repro/internal/machine"
	"repro/internal/obs"
)

// Sim returns the virtual-time simulator backend: the original substrate
// of this reproduction. Every rank carries a virtual clock advanced by
// explicit compute charges and by message costs from the machine model, so
// the same program yields deterministic makespans for any process count
// regardless of how the host schedules goroutines.
func Sim() Runner { return simRunner{} }

type simRunner struct{}

func (simRunner) Name() string { return "sim" }

func (simRunner) Virtual() bool { return true }

func (simRunner) NewTransport(ctx context.Context, n int, m *machine.Model) (Transport, error) {
	return &simTransport{
		mailbox:  newMailbox(ctx, n, false),
		model:    m,
		clocks:   make([]float64, n),
		resident: make([]float64, n),
		rec:      obs.RunRecorder(ctx, n, "sim"),
	}, nil
}

// simTransport prices computation and communication in virtual time.
// clocks and resident are rank-indexed and only touched by the goroutine
// running that rank, so they need no locking.
type simTransport struct {
	*mailbox
	model    *machine.Model
	clocks   []float64
	resident []float64
	rec      *obs.Recorder
}

func (t *simTransport) Recorder() *obs.Recorder { return t.rec }

// vns converts virtual seconds to the trace's nanosecond timestamps: sim
// events sit on the modeled timeline, not the host's.
func vns(sec float64) int64 { return int64(sec * 1e9) }

// pagingFactor is the compute-cost multiplier implied by rank's current
// resident-set declaration.
func (t *simTransport) pagingFactor(rank int) float64 {
	m := t.model
	if m.MemPerProc > 0 && t.resident[rank] > m.MemPerProc {
		return m.PagingFactor
	}
	return 1
}

func (t *simTransport) Charge(rank int, sec float64) {
	t.clocks[rank] += sec * t.pagingFactor(rank)
}

func (t *simTransport) SetResident(rank int, bytes float64) {
	t.resident[rank] = bytes
}

func (t *simTransport) Clock(rank int) float64 { return t.clocks[rank] }

func (t *simTransport) Idle(rank int, at float64) {
	if at > t.clocks[rank] {
		t.clocks[rank] = at
	}
}

// Send prices the message and enqueues it with its availability time.
// Send to self is a memory copy: it costs copy time but no latency, and is
// delivered through the same FIFO so program structure is uniform.
func (t *simTransport) Send(src, dst, tag int, data any, bytes int) {
	m := t.model
	start := t.clocks[src]
	if dst == src {
		t.Charge(src, float64(bytes)/8*m.MemTime)
		t.push(src, dst, message{tag: tag, data: data, bytes: bytes, avail: t.clocks[src]})
	} else {
		t.clocks[src] += m.SendOverhead
		avail := t.clocks[src] + m.Latency + float64(bytes)/m.Bandwidth
		t.count(src, bytes)
		t.push(src, dst, message{tag: tag, data: data, bytes: bytes, avail: avail})
	}
	if t.rec != nil {
		t.rec.Emit(src, obs.Event{T: vns(start), Dur: vns(t.clocks[src] - start), Bytes: int64(bytes), Peer: int32(dst), Tag: int32(tag), Kind: obs.KindSend})
	}
}

// Recv dequeues the next message from src and advances dst's clock to the
// message's availability time plus receive overhead.
func (t *simTransport) Recv(src, dst, tag int) any {
	start := t.clocks[dst]
	msg := t.pop(src, dst, tag)
	if msg.avail > t.clocks[dst] {
		t.clocks[dst] = msg.avail
	}
	if src != dst {
		t.clocks[dst] += t.model.RecvOverhead
	}
	if t.rec != nil {
		t.rec.Emit(dst, obs.Event{T: vns(start), Dur: vns(t.clocks[dst] - start), Bytes: int64(msg.bytes), Peer: int32(src), Tag: int32(tag), Kind: obs.KindRecv})
	}
	return msg.data
}

func (t *simTransport) RecvAny(dst, tag int) (int, any) {
	start := t.clocks[dst]
	src, msg := t.popAny(dst, tag)
	if msg.avail > t.clocks[dst] {
		t.clocks[dst] = msg.avail
	}
	if src != dst {
		t.clocks[dst] += t.model.RecvOverhead
	}
	if t.rec != nil {
		t.rec.Emit(dst, obs.Event{T: vns(start), Dur: vns(t.clocks[dst] - start), Bytes: int64(msg.bytes), Peer: int32(src), Tag: int32(tag), Kind: obs.KindRecvAny})
	}
	return src, msg.data
}

func (t *simTransport) Finish() Result {
	res := Result{Clocks: append([]float64(nil), t.clocks...)}
	for _, c := range t.clocks {
		if c > res.Makespan {
			res.Makespan = c
		}
	}
	res.Msgs, res.Bytes = t.totals()
	t.reportParks(t.rec)
	t.release()
	return res
}

func init() { Register(Sim()) }
