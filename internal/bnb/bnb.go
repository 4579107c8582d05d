// Package bnb implements a branch-and-bound archetype — the example the
// paper's Conclusions give of a *nondeterministic* archetype that a
// complete archetype library should include ("some problems are better
// suited to nondeterministic archetypes — for example, branch and
// bound").
//
// The computational pattern: maximize over a tree of partial solutions,
// expanding nodes, pruning any whose upper bound cannot beat the
// incumbent. Two parallelizations are provided:
//
//   - SolveSync — a deterministic bulk-synchronous strategy in the spirit
//     of the paper's other archetypes: rounds of local best-first
//     expansion, an all-reduce of the incumbent, and a deterministic
//     all-to-all rebalance of open nodes. Like the deterministic
//     archetypes, it gives identical results and virtual times on every
//     run, so it can be debugged like a sequential program.
//
//   - SolveAsync — the classic nondeterministic manager/worker strategy:
//     a manager hands out work reactively (spmd.Proc.RecvAny), workers
//     expand subtrees against their last-known incumbent. Execution
//     order and makespan vary run to run; the optimum does not.
//
// The two strategies bracket exactly the trade-off the paper describes:
// determinism (and sequential debuggability) versus reactive load
// balance.
package bnb

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/spmd"
)

// Spec describes a maximization branch-and-bound problem over nodes of
// type N.
type Spec[N any] struct {
	Name string
	// Root is the initial node.
	Root N
	// Branch expands a node into children; empty means the node is a
	// dead end or fully expanded.
	Branch func(m core.Meter, n N) []N
	// Bound returns an upper bound on the value of any completion of n;
	// nodes with Bound <= incumbent are pruned.
	Bound func(m core.Meter, n N) float64
	// Value returns n's value and whether n is a complete solution.
	Value func(m core.Meter, n N) (float64, bool)
}

func (s *Spec[N]) validate() {
	if s.Branch == nil || s.Bound == nil || s.Value == nil {
		panic(fmt.Sprintf("bnb: spec %q must define Branch, Bound and Value", s.Name))
	}
}

// Result reports a solve.
type Result struct {
	// Best is the optimum value found (negative infinity if the tree
	// holds no complete solution — see Found).
	Best float64
	// Found reports whether any complete solution exists.
	Found bool
	// Expanded counts node expansions (a work measure).
	Expanded int64
}

const negInf = -1e308

// SolveSeq runs the sequential best-first branch and bound, charging m.
func SolveSeq[N any](m core.Meter, spec *Spec[N]) Result {
	spec.validate()
	res := Result{Best: negInf}
	pq := &boundHeap[N]{}
	pushNode(m, spec, pq, &res, spec.Root)
	for pq.Len() > 0 {
		nd := heapPop(pq)
		if nd.bound <= res.Best && res.Found {
			continue // pruned after incumbent improved
		}
		res.Expanded++
		for _, c := range spec.Branch(m, nd.n) {
			pushNode(m, spec, pq, &res, c)
		}
	}
	return res
}

// node pairs a problem node with its cached bound.
type node[N any] struct {
	n     N
	bound float64
}

// pushNode evaluates a node (value + bound), updates the incumbent, and
// queues it if it survives pruning.
func pushNode[N any](m core.Meter, spec *Spec[N], pq *boundHeap[N], res *Result, n N) {
	if v, complete := spec.Value(m, n); complete {
		if !res.Found || v > res.Best {
			res.Best, res.Found = v, true
		}
		return
	}
	b := spec.Bound(m, n)
	if res.Found && b <= res.Best {
		return
	}
	heapPush(pq, node[N]{n, b})
}

// boundHeap is a max-heap on bound (ties broken by insertion order for
// determinism).
type boundHeap[N any] struct {
	items []node[N]
}

func (h *boundHeap[N]) Len() int { return len(h.items) }

func heapPush[N any](h *boundHeap[N], nd node[N]) {
	h.items = append(h.items, nd)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].bound >= h.items[i].bound {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func heapPop[N any](h *boundHeap[N]) node[N] {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < last && h.items[l].bound > h.items[big].bound {
			big = l
		}
		if r < last && h.items[r].bound > h.items[big].bound {
			big = r
		}
		if big == i {
			break
		}
		h.items[i], h.items[big] = h.items[big], h.items[i]
		i = big
	}
	return top
}

// Tags for the async protocol.
const (
	tagWork = collective.TagUser + 70 + iota
	tagToManager
)

// incumbent is the best complete solution a process knows of, the value
// SolveSync all-reduces every round.
type incumbent struct {
	V     float64
	Found bool
}

// An incumbent is priced as a float64 and a flag, 9 bytes, and travels as
// two words: no narrower on the wire than in memory.
func init() {
	spmd.Register(9, spmd.Words(2, func(x incumbent) [8]uint64 { return [8]uint64{math.Float64bits(x.V), spmd.Bit(x.Found)} },
		func(w [8]uint64) incumbent { return incumbent{math.Float64frombits(w[0]), w[1] != 0} }), incumbent{2.5, true})
}

// SolveSync runs the deterministic bulk-synchronous parallel branch and
// bound as process p's body. Every process returns the identical Result
// (Expanded is the global total). chunk controls how many nodes each
// process expands per round.
func SolveSync[N any](p spmd.Comm, spec *Spec[N], chunk int) Result {
	spec.validate()
	if chunk < 1 {
		chunk = 1
	}
	n := p.N()
	res := Result{Best: negInf}
	pq := &boundHeap[N]{}
	if p.Rank() == 0 {
		pushNode(p, spec, pq, &res, spec.Root)
	}

	for {
		// Expand up to chunk nodes locally, best-first.
		var children []N
		expanded := 0
		for pq.Len() > 0 && expanded < chunk {
			nd := heapPop(pq)
			if res.Found && nd.bound <= res.Best {
				continue
			}
			expanded++
			children = append(children, spec.Branch(p, nd.n)...)
		}

		// Establish the global incumbent (recursive doubling), then
		// queue surviving children.
		localBest := incumbent{res.Best, res.Found}
		for _, c := range children {
			if v, complete := spec.Value(p, c); complete {
				if !localBest.Found || v > localBest.V {
					localBest = incumbent{v, true}
				}
			}
		}
		best := collective.AllReduce(p, localBest, func(a, b incumbent) incumbent {
			switch {
			case !a.Found:
				return b
			case !b.Found:
				return a
			case b.V > a.V:
				return b
			default:
				return a
			}
		})
		res.Best, res.Found = best.V, best.Found

		// Rebalance: deal surviving open children round-robin across
		// processes by bound order (deterministic).
		open := make([]node[N], 0, len(children))
		for _, c := range children {
			if _, complete := spec.Value(core.Nop, c); complete {
				continue
			}
			b := spec.Bound(p, c)
			if res.Found && b <= res.Best {
				continue
			}
			open = append(open, node[N]{c, b})
		}
		sort.SliceStable(open, func(i, j int) bool { return open[i].bound > open[j].bound })
		parts := make([][]N, n)
		for i, nd := range open {
			dst := i % n
			parts[dst] = append(parts[dst], nd.n)
		}
		recv := collective.AllToAll(p, parts)
		for _, batch := range recv {
			for _, c := range batch {
				pushNode(p, spec, pq, &res, c)
			}
		}

		// Count work and check termination.
		totals := collective.AllReduce(p, [2]int64{int64(expanded), int64(pq.Len())},
			func(a, b [2]int64) [2]int64 { return [2]int64{a[0] + b[0], a[1] + b[1]} })
		res.Expanded += totals[0]
		if totals[1] == 0 {
			// Queues may still be non-empty locally only with nodes
			// that will all be pruned; totals counts them, so zero
			// means done everywhere.
			return res
		}
	}
}

// asyncMsg is the manager/worker protocol message.
type asyncMsg[N any] struct {
	// Kind: 0 = worker requests work / returns results; 1 = manager
	// assigns nodes; 2 = manager says stop.
	Kind int
	// Nodes carries assigned work (manager→worker) or new frontier
	// nodes (worker→manager).
	Nodes []N
	// Best carries the sender's incumbent knowledge.
	Best     float64
	Found    bool
	Expanded int64
}

// asyncNodes is an asyncMsg's nodes on the wire, priced at an estimate of
// one word per node; the message's other fields are four header words.
// Only KnapNode's is registered: SolveAsync runs on no other node type.
type asyncNodes[N any] []N

func (m asyncMsg[N]) wire() spmd.Wrapped {
	return spmd.Wrapped{K: 4, Head: [4]int64{int64(m.Kind), int64(math.Float64bits(m.Best)), int64(spmd.Bit(m.Found)), m.Expanded},
		Body: asyncNodes[N](m.Nodes)}
}

func msgOf[N any](w spmd.Wrapped) asyncMsg[N] {
	return asyncMsg[N]{Kind: int(w.Head[0]), Nodes: w.Body.(asyncNodes[N]), Best: math.Float64frombits(uint64(w.Head[1])),
		Found: w.Head[2] != 0, Expanded: w.Head[3]}
}

// SolveAsync runs the nondeterministic manager/worker branch and bound on
// a world of at least two processes: rank 0 manages the queue and the
// incumbent; other ranks expand subtrees of up to budget nodes per
// assignment. Every process returns the identical Result; execution
// order (and hence virtual makespan) varies run to run, the optimum does
// not.
func SolveAsync[N any](p *spmd.Proc, spec *Spec[N], budget int) Result {
	spec.validate()
	if p.N() < 2 {
		panic("bnb: SolveAsync needs at least two processes (manager + worker)")
	}
	if budget < 1 {
		budget = 1
	}
	if p.Rank() == 0 {
		return runManager(p, spec)
	}
	return runWorker(p, spec, budget)
}

func runManager[N any](p *spmd.Proc, spec *Spec[N]) Result {
	res := Result{Best: negInf}
	pq := &boundHeap[N]{}
	pushNode(p, spec, pq, &res, spec.Root)

	workers := p.N() - 1
	idle := make([]int, 0, workers)   // workers waiting for work
	outstanding := make(map[int]bool) // workers holding assignments

	finish := func() Result {
		for w := 1; w < p.N(); w++ {
			spmd.SendT(p, w, tagWork, asyncMsg[N]{Kind: 2, Best: res.Best, Found: res.Found, Expanded: res.Expanded}.wire())
		}
		return res
	}

	for {
		// Hand work to every idle worker while any exists.
		for len(idle) > 0 && pq.Len() > 0 {
			nd := heapPop(pq)
			if res.Found && nd.bound <= res.Best {
				continue
			}
			w := idle[len(idle)-1]
			idle = idle[:len(idle)-1]
			msg := asyncMsg[N]{Kind: 1, Nodes: []N{nd.n}, Best: res.Best, Found: res.Found}
			spmd.SendT(p, w, tagWork, msg.wire())
			outstanding[w] = true
		}
		if pq.Len() == 0 && len(outstanding) == 0 {
			return finish()
		}

		src, raw := p.RecvAny(tagToManager)
		msg := msgOf[N](raw.(spmd.Wrapped))
		delete(outstanding, src)
		idle = append(idle, src)
		res.Expanded += msg.Expanded
		if msg.Found && (!res.Found || msg.Best > res.Best) {
			res.Best, res.Found = msg.Best, true
		}
		for _, c := range msg.Nodes {
			pushNode(p, spec, pq, &res, c)
		}
	}
}

func runWorker[N any](p *spmd.Proc, spec *Spec[N], budget int) Result {
	// Announce availability.
	spmd.SendT(p, 0, tagToManager, asyncMsg[N]{Kind: 0, Best: negInf}.wire())
	for {
		msg := msgOf[N](spmd.Recv[spmd.Wrapped](p, 0, tagWork))
		if msg.Kind == 2 {
			return Result{Best: msg.Best, Found: msg.Found, Expanded: msg.Expanded}
		}
		// Expand a subtree of up to budget nodes, best-first, against
		// the incumbent the manager shipped.
		local := Result{Best: msg.Best, Found: msg.Found}
		pq := &boundHeap[N]{}
		for _, nd := range msg.Nodes {
			pushNode(p, spec, pq, &local, nd)
		}
		var frontier []N
		var expanded int64
		for pq.Len() > 0 && expanded < int64(budget) {
			nd := heapPop(pq)
			if local.Found && nd.bound <= local.Best {
				continue
			}
			expanded++
			for _, c := range spec.Branch(p, nd.n) {
				pushNode(p, spec, pq, &local, c)
			}
		}
		// Whatever survives goes back to the manager.
		for pq.Len() > 0 {
			nd := heapPop(pq)
			if local.Found && nd.bound <= local.Best {
				continue
			}
			frontier = append(frontier, nd.n)
		}
		reply := asyncMsg[N]{Kind: 0, Nodes: frontier, Best: local.Best, Found: local.Found, Expanded: expanded}
		spmd.SendT(p, 0, tagToManager, reply.wire())
	}
}
