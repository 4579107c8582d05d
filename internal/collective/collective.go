// Package collective implements the communication operations the paper's
// archetypes require (§2.4, §3.3): broadcast, gather, scatter, all-gather,
// all-to-all, reduction (both all-to-one/one-to-all and recursive-doubling
// forms — Figure 9), and barrier.
//
// All operations are built from spmd point-to-point messages, so their
// virtual-time costs emerge from the machine model rather than being
// asserted: a recursive-doubling reduction really takes ceil(log2 N)
// message rounds, an all-to-all really sends N-1 messages per process, and
// the experiment figures inherit these shapes.
//
// Every process in the world must call the same collective in the same
// order — the usual SPMD contract. Payload sizes for cost accounting come
// from spmd.BytesOf, which reads spmd's payload table: a value the
// collectives pass on must be of a type listed or registered there, and a
// payload with no price fails the run.
package collective

import (
	"math"

	"repro/internal/obs"
	"repro/internal/spmd"
)

// Tag space reserved by this package. Applications should use tags >= TagUser.
const (
	tagBcast = 1 + iota
	tagGather
	tagScatter
	tagAllToAll
	tagReduceUp
	tagReduceDown
	tagBarrierBase // barrier uses tagBarrierBase+round
	tagRDBase      = 32
	// TagUser is the first tag value free for application protocols.
	TagUser = 128
)

// Broadcast distributes root's value to every process using a binomial
// tree (ceil(log2 N) rounds on the critical path) and returns it
// everywhere. Non-root callers' v argument is ignored.
func Broadcast[T any](p spmd.Comm, root int, v T) T {
	n, rank := p.N(), p.Rank()
	if n == 1 {
		return v
	}
	rel := rank - root
	if rel < 0 {
		rel += n
	}
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := rank - mask
			if src < 0 {
				src += n
			}
			v = spmd.Recv[T](p, src, tagBcast)
			break
		}
		mask <<= 1
	}
	// mask is the bit at which this process received (or >= n at root);
	// forward down the remaining subtree.
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := rank + mask
			if dst >= n {
				dst -= n
			}
			spmd.SendT(p, dst, tagBcast, v)
		}
		mask >>= 1
	}
	return v
}

// Gather collects one value from every process at root. At root it returns
// a slice indexed by rank; elsewhere it returns nil. The implementation is
// linear (N-1 receives at the root), matching the simple gather the paper's
// archetype libraries provided; the serialization at the root is part of
// the cost the one-deep figures exhibit.
func Gather[T any](p spmd.Comm, root int, v T) []T {
	n, rank := p.N(), p.Rank()
	if rank != root {
		spmd.SendT(p, root, tagGather, v)
		return nil
	}
	out := make([]T, n)
	out[rank] = v
	for src := 0; src < n; src++ {
		if src == rank {
			continue
		}
		out[src] = spmd.Recv[T](p, src, tagGather)
	}
	return out
}

// Scatter distributes parts[i] from root to process i and returns each
// process's part. Only root's parts argument is consulted; it must have
// length N.
func Scatter[T any](p spmd.Comm, root int, parts []T) T {
	n, rank := p.N(), p.Rank()
	if rank == root {
		if len(parts) != n {
			panic("collective: Scatter parts length must equal world size")
		}
		for dst := 0; dst < n; dst++ {
			if dst == rank {
				continue
			}
			spmd.SendT(p, dst, tagScatter, parts[dst])
		}
		return parts[rank]
	}
	return spmd.Recv[T](p, root, tagScatter)
}

// AllGather makes every process's value known to all processes, returning
// a slice indexed by rank. It is implemented as gather-to-0 followed by
// broadcast — option (i) of §2.4. See AllGatherExchange for option (ii).
func AllGather[T any](p spmd.Comm, v T) []T {
	all := Gather(p, 0, v)
	return Broadcast(p, 0, all)
}

// AllGatherExchange is the all-to-all formulation of all-gather — option
// (ii) of §2.4: every process sends its value directly to every other.
// One round of N-1 sends and receives per process; cheaper than
// AllGather for small N on low-latency networks, worse for large N.
func AllGatherExchange[T any](p spmd.Comm, v T) []T {
	n, rank := p.N(), p.Rank()
	out := make([]T, n)
	out[rank] = v
	for k := 1; k < n; k++ {
		spmd.SendT(p, (rank+k)%n, tagAllToAll, v)
	}
	for k := 1; k < n; k++ {
		src := (rank - k + n) % n
		out[src] = spmd.Recv[T](p, src, tagAllToAll)
	}
	return out
}

// AllToAll performs a personalized exchange: parts[dst] travels from this
// process to process dst; the result holds, at index src, the part that
// process src addressed to this process. parts must have length N; the
// rank-th entry is kept locally (copy cost only). This is the
// redistribution primitive of the one-deep split and merge phases and of
// mesh-spectral grid redistribution.
func AllToAll[T any](p spmd.Comm, parts []T) []T {
	n, rank := p.N(), p.Rank()
	if len(parts) != n {
		panic("collective: AllToAll parts length must equal world size")
	}
	out := make([]T, n)
	out[rank] = parts[rank]
	for k := 1; k < n; k++ {
		dst := (rank + k) % n
		spmd.SendT(p, dst, tagAllToAll, parts[dst])
	}
	for k := 1; k < n; k++ {
		src := (rank - k + n) % n
		out[src] = spmd.Recv[T](p, src, tagAllToAll)
	}
	return out
}

// Reduce combines every process's value with op and returns the result at
// root (zero value elsewhere). The combination is performed at the root in
// ascending rank order — the deterministic all-to-one pattern of §3.3 —
// so floating-point results match a sequential left fold over ranks.
func Reduce[T any](p spmd.Comm, root int, v T, op func(a, b T) T) T {
	n, rank := p.N(), p.Rank()
	if rank != root {
		spmd.SendT(p, root, tagReduceUp, v)
		var zero T
		return zero
	}
	parts := make([]T, n)
	parts[rank] = v
	for src := 0; src < n; src++ {
		if src == rank {
			continue
		}
		parts[src] = spmd.Recv[T](p, src, tagReduceUp)
	}
	acc := parts[0]
	for i := 1; i < n; i++ {
		acc = op(acc, parts[i])
	}
	return acc
}

// partial is a recursive-doubling partial: a reduction value tagged with
// the minimum original rank it covers, so combination order is fixed by
// rank.
type partial[T any] struct {
	MinRank int
	V       T
}

// wire is a partial's form on the wire, priced as its value plus 8, the
// cost the manual accounting charged: the rank is a header word, and so is
// a float64 value (what loop-control reductions carry), which then needs
// no box of its own beside the message's; any other value is the body.
func (x partial[T]) wire() spmd.Wrapped {
	if v, ok := any(x.V).(float64); ok {
		return spmd.Wrapped{K: 2, Head: [4]int64{int64(x.MinRank), int64(math.Float64bits(v))}}
	}
	return spmd.Wrapped{K: 1, Head: [4]int64{int64(x.MinRank)}, Body: x.V}
}

// recvPartial receives a partial sent as its wire form.
func recvPartial[T any](p spmd.Comm, src, tag int) partial[T] {
	w := spmd.Recv[spmd.Wrapped](p, src, tag)
	x := partial[T]{MinRank: int(w.Head[0])}
	if v, ok := any(&x.V).(*float64); ok {
		*v = math.Float64frombits(uint64(w.Head[1]))
	} else {
		x.V = w.Body.(T)
	}
	return x
}

// AllReduce combines every process's value with op and returns the result
// on all processes, using recursive doubling (Figure 9):
// ceil(log2 N) exchange rounds, with the standard pre/post adjustment for
// non-power-of-two N. op is applied with the lower-origin-rank partial as
// its first argument, so every process computes the identical value (a
// fixed reduction tree), though the tree order differs from Reduce's left
// fold — the paper's "associative or can be so treated" caveat.
func AllReduce[T any](p spmd.Comm, v T, op func(a, b T) T) T {
	n, rank := p.N(), p.Rank()
	if n == 1 {
		return v
	}
	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2

	combine := func(a, b partial[T]) partial[T] {
		if a.MinRank < b.MinRank {
			return partial[T]{a.MinRank, op(a.V, b.V)}
		}
		return partial[T]{b.MinRank, op(b.V, a.V)}
	}
	acc := partial[T]{rank, v}

	// Fold the first 2*rem ranks down so a power-of-two subset remains:
	// even ranks < 2*rem ship their value to the next odd rank and sit out.
	newRank := -1
	switch {
	case rank < 2*rem && rank%2 == 0:
		spmd.SendT(p, rank+1, tagRDBase, acc.wire())
	case rank < 2*rem: // odd
		rv := recvPartial[T](p, rank-1, tagRDBase)
		acc = combine(rv, acc)
		newRank = rank / 2
	default:
		newRank = rank - rem
	}

	if newRank >= 0 {
		realRank := func(nr int) int {
			if nr < rem {
				return nr*2 + 1
			}
			return nr + rem
		}
		round := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := realRank(newRank ^ mask)
			spmd.SendT(p, partner, tagRDBase+round, acc.wire())
			rv := recvPartial[T](p, partner, tagRDBase+round)
			acc = combine(acc, rv)
			round++
		}
	}

	// Ship results back to the ranks folded out in the first step.
	switch {
	case rank < 2*rem && rank%2 == 0:
		acc.V = spmd.Recv[T](p, rank+1, tagReduceDown)
	case rank < 2*rem: // odd
		spmd.SendT(p, rank-1, tagReduceDown, acc.V)
	}
	return acc.V
}

// AllReduceGB is the gather/broadcast formulation of all-reduce (reduce at
// rank 0 in rank order, then broadcast). Deterministic left-fold order;
// used as the ablation baseline against recursive doubling.
func AllReduceGB[T any](p spmd.Comm, v T, op func(a, b T) T) T {
	r := Reduce(p, 0, v, op)
	return Broadcast(p, 0, r)
}

// Barrier synchronizes all processes with a dissemination barrier:
// ceil(log2 N) rounds of zero-byte token exchange. After it returns, every
// process's virtual clock is at least the maximum pre-barrier clock.
// traced is satisfied by a world-level *spmd.Proc when its transport
// records events; group views don't implement it, so sub-communicator
// barriers stay uninstrumented (their sends/recvs are still traced).
type traced interface {
	Recorder() *obs.Recorder
	Stamp() int64
	Rank() int
}

func Barrier(p spmd.Comm) {
	var rec *obs.Recorder
	var start int64
	tp, ok := p.(traced)
	if ok {
		if rec = tp.Recorder(); rec != nil {
			start = tp.Stamp()
		}
	}
	n, rank := p.N(), p.Rank()
	round := 0
	for mask := 1; mask < n; mask <<= 1 {
		p.Send((rank+mask)%n, tagBarrierBase+round, nil)
		p.Recv((rank-mask+n)%n, tagBarrierBase+round)
		round++
	}
	if rec != nil {
		rec.Emit(rank, obs.Event{T: start, Dur: tp.Stamp() - start, Peer: -1, Kind: obs.KindBarrier})
	}
}

// MaxClock returns the maximum virtual clock across all processes and,
// as a side effect of the dissemination pattern, aligns every clock to at
// least that value. Useful for phase-by-phase timing breakdowns.
func MaxClock(p spmd.Comm) float64 {
	c := AllReduce(p, p.Clock(), func(a, b float64) float64 {
		if a > b {
			return a
		}
		return b
	})
	p.Idle(c)
	return c
}
