package bnb

import (
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/spmd"
)

// Item is a 0/1-knapsack item.
type Item struct {
	Weight, Value int
}

// KnapNode is a partial knapsack decision: items before Idx are decided,
// with accumulated Weight and Value.
type KnapNode struct {
	Idx, Weight, Value int
}

// knapNode is a KnapNode's wire form: its three words.
var knapNode = spmd.Words(3, func(n KnapNode) [8]uint64 { return [8]uint64{uint64(n.Idx), uint64(n.Weight), uint64(n.Value)} },
	func(w [8]uint64) KnapNode { return KnapNode{int(w[0]), int(w[1]), int(w[2])} })

// The solvers ship frontier nodes: SolveSync's all-to-all as []KnapNode,
// SolveAsync's manager and workers inside an asyncMsg.
func init() {
	spmd.Register(24, knapNode, KnapNode{1, -2, 3})
	spmd.RegisterSlice(8, knapNode, asyncNodes[KnapNode]{{1, 2, 3}})
}

// Knapsack returns the branch-and-bound spec for the 0/1 knapsack with
// the given items and capacity, maximizing total value. Items are
// branched in value-density order and bounded by the fractional
// (linear-relaxation) bound.
func Knapsack(items []Item, capacity int) *Spec[KnapNode] {
	ordered := append([]Item(nil), items...)
	sort.SliceStable(ordered, func(i, j int) bool {
		// Density descending; weight ascending as tie-break.
		return ordered[i].Value*ordered[j].Weight > ordered[j].Value*ordered[i].Weight
	})
	n := len(ordered)
	return &Spec[KnapNode]{
		Name: "knapsack",
		Root: KnapNode{},
		Branch: func(m core.Meter, nd KnapNode) []KnapNode {
			if nd.Idx >= n {
				return nil
			}
			m.Flops(4)
			it := ordered[nd.Idx]
			out := make([]KnapNode, 0, 2)
			if nd.Weight+it.Weight <= capacity {
				out = append(out, KnapNode{nd.Idx + 1, nd.Weight + it.Weight, nd.Value + it.Value})
			}
			out = append(out, KnapNode{nd.Idx + 1, nd.Weight, nd.Value})
			return out
		},
		Bound: func(m core.Meter, nd KnapNode) float64 {
			bound := float64(nd.Value)
			room := capacity - nd.Weight
			flops := 0.0
			for i := nd.Idx; i < n && room > 0; i++ {
				it := ordered[i]
				flops += 3
				if it.Weight <= room {
					room -= it.Weight
					bound += float64(it.Value)
				} else {
					bound += float64(it.Value) * float64(room) / float64(it.Weight)
					room = 0
				}
			}
			m.Flops(flops)
			return bound
		},
		Value: func(m core.Meter, nd KnapNode) (float64, bool) {
			return float64(nd.Value), nd.Idx >= n
		},
	}
}

// KnapsackDP solves the 0/1 knapsack exactly by dynamic programming —
// the testing oracle (O(n·capacity)).
func KnapsackDP(items []Item, capacity int) int {
	if capacity < 0 {
		return 0
	}
	best := make([]int, capacity+1)
	for _, it := range items {
		if it.Weight < 0 {
			continue
		}
		for c := capacity; c >= it.Weight; c-- {
			if v := best[c-it.Weight] + it.Value; v > best[c] {
				best[c] = v
			}
		}
	}
	return best[capacity]
}

// RandomItems generates n deterministic pseudo-random items with weights
// in [1, maxW] and loosely weight-correlated values (which makes the
// instances non-trivial for branch and bound).
func RandomItems(n int, maxW int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Item, n)
	for i := range out {
		w := rng.Intn(maxW) + 1
		out[i] = Item{Weight: w, Value: w + rng.Intn(maxW)}
	}
	return out
}
