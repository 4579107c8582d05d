package dist

import (
	"context"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/spmd"
)

func TestEvalMatching(t *testing.T) {
	faults := []Fault{
		{Rank: 2, Epoch: 7, Action: Kill},
		{Rank: AnyRank, Epoch: AnyEpoch, Count: 2, Action: Delay, Delay: 5 * time.Millisecond},
	}
	fired := make([]int, len(faults))

	// Wrong rank or wrong epoch: the exact rule does not match, and the
	// wildcard rule takes the operation instead.
	if i := fire(faults, fired, 1, 7); i != 1 {
		t.Errorf("fire(rank 1, epoch 7) = %d, want the wildcard rule (1)", i)
	}
	if i := fire(faults, fired, 2, 6); i != 1 {
		t.Errorf("fire(rank 2, epoch 6) = %d, want the wildcard rule (1)", i)
	}
	// The wildcard rule has fired Count times: it no longer matches.
	if i := fire(faults, fired, 9, 123); i != -1 {
		t.Errorf("firing beyond Count = %d, want none (-1)", i)
	}

	// An exact match fires once (Count 0 means once), then is consumed:
	// the same epoch passing again, as on a replayed rank, must not
	// re-fire it.
	if i := fire(faults, fired, 2, 7); i != 0 {
		t.Fatalf("exact match = %d, want 0", i)
	}
	if i := fire(faults, fired, 2, 7); i != -1 {
		t.Errorf("consumed rule re-fired: %d", i)
	}
	if fired[0] != 1 || fired[1] != 2 {
		t.Errorf("fired = %v, want [1 2]", fired)
	}
}

func TestFirstMatchWins(t *testing.T) {
	faults := []Fault{
		{Rank: AnyRank, Epoch: AnyEpoch, Action: Drop},
		{Rank: AnyRank, Epoch: AnyEpoch, Action: Kill},
	}
	fired := make([]int, len(faults))
	if i := fire(faults, fired, 0, 0); i != 0 {
		t.Fatalf("first fire = %d, want the first rule (Drop)", i)
	}
	// With the first rule consumed, the second becomes the first match.
	if i := fire(faults, fired, 0, 0); i != 1 {
		t.Fatalf("second fire = %d, want the second rule (Kill)", i)
	}
}

// TestNilInjector pins that nothing fires without a declared fault, nor
// for a fault that declares no action.
func TestNilInjector(t *testing.T) {
	if i := fire(nil, nil, 0, 0); i != -1 {
		t.Errorf("fire with no faults = %d, want -1", i)
	}
	if i := fire([]Fault{{Rank: AnyRank, Epoch: AnyEpoch}}, []int{0}, 0, 0); i != -1 {
		t.Errorf("fire of a fault without an action = %d, want -1", i)
	}
}

// TestStats pins Stats.Faults on a one-rank world whose four operations
// (a self-send and its receive, twice) have epochs 0 to 3: the wildcard
// rule takes epochs 0 and 1, shadowing the rule for epoch 1, the epoch-3
// rule fires, and the rank-1 rule never matches. A second world on the
// same runner starts with every rule unfired.
func TestStats(t *testing.T) {
	var stats Stats
	r := New(WithObserver(func(s Stats) { stats = s }), WithFaults(
		Fault{Rank: AnyRank, Epoch: AnyEpoch, Count: 2, Action: Delay, Delay: time.Microsecond},
		Fault{Rank: 0, Epoch: 1, Action: Delay, Delay: time.Microsecond},
		Fault{Rank: 0, Epoch: 3, Action: Delay, Delay: time.Microsecond},
		Fault{Rank: 1, Epoch: AnyEpoch, Action: Kill},
	))
	for world := 0; world < 2; world++ {
		w, err := spmd.NewWorldOn(context.Background(), r, 1, machine.IBMSP())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Run(func(p *spmd.Proc) {
			for round := 0; round < 2; round++ {
				p.Send(0, round, round)
				p.Recv(0, round)
			}
		}); err != nil {
			t.Fatalf("world %d: %v", world, err)
		}
		if stats.Faults != 3 {
			t.Errorf("world %d: Stats.Faults = %d, want 3", world, stats.Faults)
		}
	}
}

func TestActionString(t *testing.T) {
	for act, want := range map[Action]string{0: "none", Kill: "kill", Drop: "drop", Delay: "delay"} {
		if got := act.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(act), got, want)
		}
	}
}
