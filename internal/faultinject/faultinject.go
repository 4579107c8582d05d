// Package faultinject is the deterministic fault-injection seam for the
// remote backend: tests (and the chaos CI job) declare faults as data —
// "kill rank 2's worker at epoch 7", "drop rank 0's connection after its
// third operation" — and the backend consults the injector at its hook
// point instead of being killed by hand.
//
// Hook points are named by the package that owns them:
//
//   - dist.op — evaluated by the dist coordinator after every completed
//     rank operation (send or receive); epoch is the operation's index in
//     the rank's current attempt, so Kill at a given epoch
//     deterministically kills the rank's worker at the same program point
//     on every run, including re-executions. Rules default to firing once
//     (Count 1), so a re-executed rank passing the same epoch again does
//     not re-fire. Drop closes the rank's connection (the ordinary
//     lost-worker path finds it), Delay sleeps.
//
// A nil *Injector is valid everywhere and injects nothing, so production
// paths carry no fault logic beyond one nil check.
package faultinject

import (
	"sync"
	"time"
)

// Action is what happens when a rule fires.
type Action int

const (
	// None: no fault (the zero value).
	None Action = iota
	// Kill terminates the target: the worker of the rank whose operation
	// matched.
	Kill
	// Drop closes the matched connection, simulating a link loss.
	Drop
	// Delay sleeps the rule's Delay at the matched point.
	Delay
)

func (a Action) String() string {
	switch a {
	case Kill:
		return "kill"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return "none"
	}
}

// Rule is one declared fault. Zero values widen the match: Rank -1 (or
// unset via AnyRank) matches every rank, Epoch -1 every epoch. Count
// bounds how many times the rule fires; 0 means once.
type Rule struct {
	// Point names the hook ("dist.op").
	Point string
	// Rank matches the operating rank; -1 matches all.
	Rank int
	// Epoch matches the rank's logical operation index; -1 matches all.
	Epoch int
	// Count is the maximum number of firings (0 = 1).
	Count int
	// Action is the fault to inject.
	Action Action
	// Delay is the sleep for Action Delay.
	Delay time.Duration
}

// AnyRank / AnyEpoch are the wildcard values for Rule.Rank and Rule.Epoch.
const (
	AnyRank  = -1
	AnyEpoch = -1
)

// Injector evaluates declared rules at hook points. It is safe for
// concurrent use; a nil Injector never fires.
type Injector struct {
	mu    sync.Mutex
	rules []Rule
	fired []int
	byPt  map[string]int
}

// New builds an injector over the given rules.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, fired: make([]int, len(rules)), byPt: map[string]int{}}
}

// Eval reports the action to inject at the hook point for the given rank
// and epoch (None when no rule matches or the injector is nil), consuming
// one firing of the first matching rule.
func (in *Injector) Eval(point string, rank, epoch int) (Action, time.Duration) {
	if in == nil {
		return None, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, r := range in.rules {
		if r.Point != point || r.Action == None {
			continue
		}
		if r.Rank != AnyRank && r.Rank != rank {
			continue
		}
		if r.Epoch != AnyEpoch && r.Epoch != epoch {
			continue
		}
		max := r.Count
		if max <= 0 {
			max = 1
		}
		if in.fired[i] >= max {
			continue
		}
		in.fired[i]++
		in.byPt[point]++
		return r.Action, r.Delay
	}
	return None, 0
}

// Fired returns how many rules have fired at the hook point — test
// observability that an injected fault actually happened.
func (in *Injector) Fired(point string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.byPt[point]
}

// Stats is a snapshot of an injector's firing counters.
type Stats struct {
	// Total is the number of rule firings across all hook points.
	Total int
	// ByPoint counts firings per hook point name.
	ByPoint map[string]int
	// ByRule counts firings per rule, in the order rules were declared.
	ByRule []int
}

// Stats returns a snapshot of the injector's firing counters. A nil
// injector returns zero Stats with a non-nil empty ByPoint map.
func (in *Injector) Stats() Stats {
	s := Stats{ByPoint: map[string]int{}}
	if in == nil {
		return s
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s.ByRule = make([]int, len(in.fired))
	copy(s.ByRule, in.fired)
	for pt, n := range in.byPt {
		s.ByPoint[pt] = n
		s.Total += n
	}
	return s
}
