package spmd

import "repro/internal/machine"

// Comm is the communication-and-cost interface archetype code is written
// against (collectives, distributed grids, stream stages): a world process
// (*Proc), or a value wrapping one, such as a test tap that records every
// charge on its way to the process.
type Comm interface {
	// N is the number of processes in this communicator; Rank is this
	// process's index within it.
	N() int
	Rank() int
	// Send and Recv address ranks within this communicator. Payload
	// sizes for cost accounting are computed by BytesOf, from the payload
	// table.
	Send(dst, tag int, data any)
	Recv(src, tag int) any

	// Cost accounting (core.Meter plus the clock/paging extras).
	Charge(sec float64)
	Flops(n float64)
	Cmps(n float64)
	MemWords(n float64)
	Idle(t float64)
	Clock() float64
	SetResident(bytes float64)
	Model() *machine.Model
}

var _ Comm = (*Proc)(nil)
