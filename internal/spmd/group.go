package spmd

import (
	"fmt"
	"sort"

	"repro/internal/machine"
)

// Comm is the communication-and-cost interface archetype code is written
// against: a full world process (*Proc) or a subgroup view of one
// (*Group). It supports the paper's future-work direction of "archetype
// composition" — task-parallel compositions of data-parallel computations
// (and the group-communication archetype the paper cites): a world is
// split into groups, each group runs a data-parallel archetype, and the
// groups cooperate through ordinary point-to-point messages.
type Comm interface {
	// N is the number of processes in this communicator; Rank is this
	// process's index within it.
	N() int
	Rank() int
	// Send and Recv address ranks within this communicator. Payload
	// sizes for cost accounting are computed by BytesOf; payload types
	// outside the payload table implement Sized.
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

var (
	_ Comm = (*Proc)(nil)
	_ Comm = (*Group)(nil)
)

// Group is a subcommunicator: a view of a Proc restricted to a subset of
// world ranks, with ranks renumbered 0..len(ranks)-1 in ascending world
// order. Collectives and distributed grids built on a Group involve only
// its members, so disjoint groups compute independently and concurrently.
type Group struct {
	*Proc
	ranks []int // sorted world ranks
	rank  int   // my index within ranks
}

// NewGroup creates this process's view of the group containing exactly
// the given world ranks (duplicates are an error), which must include the
// calling process. Every member must construct the group with the same
// rank set — the usual SPMD contract.
func NewGroup(p *Proc, worldRanks []int) *Group {
	ranks := append([]int(nil), worldRanks...)
	sort.Ints(ranks)
	g := &Group{Proc: p, rank: -1}
	for i, r := range ranks {
		if r < 0 || r >= p.world.n {
			panic(fmt.Sprintf("spmd: group rank %d outside world of %d", r, p.world.n))
		}
		if i > 0 && ranks[i-1] == r {
			panic(fmt.Sprintf("spmd: duplicate rank %d in group", r))
		}
		if r == p.rank {
			g.rank = i
		}
	}
	if g.rank < 0 {
		panic(fmt.Sprintf("spmd: process %d is not a member of group %v", p.rank, ranks))
	}
	g.ranks = ranks
	return g
}

// Partition splits the world into contiguous groups of the given sizes
// (which must sum to N) and returns the group containing this process
// along with its index among the groups. It is the convenience used by
// task-parallel pipelines: Partition(p, n/2, n/2) gives two equal stages.
func Partition(p *Proc, sizes ...int) (*Group, int) {
	total := 0
	for _, s := range sizes {
		if s <= 0 {
			panic("spmd: group sizes must be positive")
		}
		total += s
	}
	if total != p.world.n {
		panic(fmt.Sprintf("spmd: group sizes sum to %d, world has %d", total, p.world.n))
	}
	lo := 0
	for gi, s := range sizes {
		if p.rank < lo+s {
			ranks := make([]int, s)
			for i := range ranks {
				ranks[i] = lo + i
			}
			return NewGroup(p, ranks), gi
		}
		lo += s
	}
	panic("unreachable")
}

// N returns the group size.
func (g *Group) N() int { return len(g.ranks) }

// Rank returns this process's rank within the group.
func (g *Group) Rank() int { return g.rank }

// WorldRank translates a group rank to the underlying world rank.
func (g *Group) WorldRank(groupRank int) int {
	if groupRank < 0 || groupRank >= len(g.ranks) {
		panic(fmt.Sprintf("spmd: group rank %d outside group of %d", groupRank, len(g.ranks)))
	}
	return g.ranks[groupRank]
}

// World returns the underlying full-world process (for inter-group
// communication).
func (g *Group) World() *Proc { return g.Proc }

// Send sends to a group rank.
func (g *Group) Send(dst, tag int, data any) {
	g.Proc.Send(g.WorldRank(dst), tag, data)
}

// Recv receives from a group rank.
func (g *Group) Recv(src, tag int) any {
	return g.Proc.Recv(g.WorldRank(src), tag)
}
