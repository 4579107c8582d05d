package spmd

// RecvAny receives the earliest-arrived message queued for this process,
// which must carry the given tag, and returns the sender's rank with the
// payload. Arrival order is exact on every backend, even after a targeted
// Recv has taken a later message from the same source.
//
// Unlike Recv, which messages have arrived depends on host scheduling (on
// the virtual-time backend too), so programs using RecvAny are
// nondeterministic in execution order (their virtual makespans can vary
// run to run). This is
// deliberate: it supports the paper's nondeterministic archetypes
// (branch and bound is the example § Conclusions names), which trade the
// sequential-debuggability guarantee for reactive work distribution.
// The virtual clock still advances consistently: to at least the chosen
// message's availability time plus receive overhead.
func (p *Proc) RecvAny(tag int) (int, any) {
	return p.world.t.RecvAny(p.rank, tag)
}
