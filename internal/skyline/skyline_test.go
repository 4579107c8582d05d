package skyline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/onedeep"
	"repro/internal/spmd"
)

func TestFromBuilding(t *testing.T) {
	s := FromBuilding(Building{1, 3, 10})
	if len(s) != 2 || s[0] != (Point{1, 10}) || s[1] != (Point{3, 0}) {
		t.Errorf("FromBuilding = %v", s)
	}
	if FromBuilding(Building{3, 1, 10}) != nil {
		t.Error("inverted building should give empty skyline")
	}
	if FromBuilding(Building{1, 3, 0}) != nil {
		t.Error("zero-height building should give empty skyline")
	}
}

func TestMergeTwoClassic(t *testing.T) {
	a := FromBuilding(Building{2, 9, 10})
	b := FromBuilding(Building{3, 7, 15})
	got := MergeTwo(core.Nop, a, b)
	want := Skyline{{2, 10}, {3, 15}, {7, 10}, {9, 0}}
	if !Equal(got, want) {
		t.Errorf("merge = %v, want %v", got, want)
	}
}

func TestMergeTwoIdentity(t *testing.T) {
	a := FromBuilding(Building{1, 5, 7})
	if !Equal(MergeTwo(core.Nop, a, nil), a) {
		t.Error("merge with empty right changed skyline")
	}
	if !Equal(MergeTwo(core.Nop, nil, a), a) {
		t.Error("merge with empty left changed skyline")
	}
	if !Equal(MergeTwo(core.Nop, a, a), a) {
		t.Error("merge with itself changed skyline")
	}
}

func TestComputeMatchesBruteForce(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		n := trial * 3
		bs := RandomBuildings(n, int64(trial), 1000)
		got := Compute(core.Nop, bs)
		want := BruteForce(bs)
		if !Equal(got, want) {
			t.Fatalf("trial %d (n=%d): D&C %v != brute %v", trial, n, got, want)
		}
	}
}

func TestComputePropertyQuick(t *testing.T) {
	f := func(raw []struct {
		L, W uint8
		H    uint8
	}) bool {
		bs := make([]Building, len(raw))
		for i, r := range raw {
			bs[i] = Building{float64(r.L), float64(r.L) + float64(r.W%20), float64(r.H % 50)}
		}
		return Equal(Compute(core.Nop, bs), BruteForce(bs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestHeightAt(t *testing.T) {
	s := Skyline{{2, 10}, {5, 3}, {8, 0}}
	cases := []struct{ x, want float64 }{
		{0, 0}, {2, 10}, {3, 10}, {5, 3}, {7.9, 3}, {8, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := HeightAt(s, c.x); got != c.want {
			t.Errorf("HeightAt(%g) = %g, want %g", c.x, got, c.want)
		}
	}
}

func TestClipReassembles(t *testing.T) {
	bs := RandomBuildings(60, 4, 500)
	s := Compute(core.Nop, bs)
	cuts := []float64{100, 200, 300, 400}
	var parts []Skyline
	lo := math.Inf(-1)
	for _, c := range cuts {
		parts = append(parts, Clip(core.Nop, s, lo, c))
		lo = c
	}
	parts = append(parts, Clip(core.Nop, s, lo, math.Inf(1)))
	if got := Assemble(parts); !Equal(got, s) {
		t.Errorf("clip+assemble != original\ngot  %v\nwant %v", got, s)
	}
}

func TestClipDegenerateInterval(t *testing.T) {
	s := Skyline{{0, 5}, {10, 0}}
	if Clip(core.Nop, s, 3, 3) != nil {
		t.Error("empty interval should clip to nil")
	}
	if Clip(core.Nop, s, 5, 3) != nil {
		t.Error("inverted interval should clip to nil")
	}
}

func TestNormalize(t *testing.T) {
	in := []Point{{1, 5}, {2, 5}, {3, 0}, {4, 0}, {5, 7}, {5, 9}}
	got := Normalize(in)
	want := Skyline{{1, 5}, {3, 0}, {5, 9}}
	if !Equal(got, want) {
		t.Errorf("Normalize = %v, want %v", got, want)
	}
	if len(Normalize(nil)) != 0 {
		t.Error("Normalize(nil) should be empty")
	}
}

func runSpecSPMD(t *testing.T, bs []Building, nprocs int, strategy onedeep.ParamStrategy) Skyline {
	t.Helper()
	spec := Spec(strategy)
	blocks := make([][]Building, nprocs)
	for i := range blocks {
		lo, hi := i*len(bs)/nprocs, (i+1)*len(bs)/nprocs
		blocks[i] = bs[lo:hi]
	}
	outs := make([]Skyline, nprocs)
	w := spmd.MustWorld(nprocs, machine.IntelDelta())
	if _, err := w.Run(func(p *spmd.Proc) {
		outs[p.Rank()] = onedeep.RunSPMD(p, spec, blocks[p.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	return Assemble(outs)
}

func TestOneDeepSkylineMatchesSequential(t *testing.T) {
	bs := RandomBuildings(300, 7, 2000)
	want := Compute(core.Nop, bs)
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, strat := range []onedeep.ParamStrategy{onedeep.Centralized, onedeep.Replicated} {
			got := runSpecSPMD(t, bs, n, strat)
			if !Equal(got, want) {
				t.Fatalf("n=%d strat=%v: one-deep != sequential", n, strat)
			}
		}
	}
}

func TestOneDeepSkylineV1MatchesSPMD(t *testing.T) {
	bs := RandomBuildings(200, 8, 1500)
	const n = 6
	blocks := make([][]Building, n)
	for i := range blocks {
		lo, hi := i*len(bs)/n, (i+1)*len(bs)/n
		blocks[i] = bs[lo:hi]
	}
	spec := Spec(onedeep.Centralized)
	v1 := onedeep.RunV1(core.Sequential, spec, blocks)
	v1c := onedeep.RunV1(core.Concurrent, spec, blocks)
	for i := range v1 {
		if !Equal(v1[i], v1c[i]) {
			t.Fatal("V1 modes disagree")
		}
	}
	got := runSpecSPMD(t, bs, n, onedeep.Centralized)
	if !Equal(got, Assemble(v1)) {
		t.Fatal("V1 and SPMD assemble differently")
	}
}

func TestOneDeepSkylineEmptyAndTinyInputs(t *testing.T) {
	for _, count := range []int{0, 1, 2, 5} {
		bs := RandomBuildings(count, 9, 100)
		want := Compute(core.Nop, bs)
		got := runSpecSPMD(t, bs, 4, onedeep.Centralized)
		if !Equal(got, want) {
			t.Fatalf("count=%d: got %v want %v", count, got, want)
		}
	}
}

func TestSkylineInvariants(t *testing.T) {
	// Canonical skylines: strictly increasing X, no equal consecutive
	// heights, final height 0 when non-empty.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		bs := RandomBuildings(rng.Intn(100)+1, int64(trial), 800)
		s := Compute(core.Nop, bs)
		if len(s) == 0 {
			continue
		}
		for i := 1; i < len(s); i++ {
			if s[i].X <= s[i-1].X {
				t.Fatalf("X not strictly increasing at %d: %v", i, s)
			}
			if s[i].H == s[i-1].H {
				t.Fatalf("consecutive equal heights at %d: %v", i, s)
			}
		}
		if s[len(s)-1].H != 0 {
			t.Fatalf("skyline does not end at height 0: %v", s)
		}
	}
}

func TestSkylinePrice(t *testing.T) {
	s := Skyline{{1, 2}, {3, 0}}
	if spmd.BytesOf(s) != 32 {
		t.Errorf("BytesOf(Skyline) = %d, want 32", spmd.BytesOf(s))
	}
}
