package hull

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

func checkHull(t *testing.T, pts []Pt, h Pts, label string) {
	t.Helper()
	if !IsConvexCCW(h) {
		t.Fatalf("%s: hull not convex CCW: %v", label, h)
	}
	inputSet := make(map[Pt]bool, len(pts))
	for _, p := range pts {
		inputSet[p] = true
	}
	for _, v := range h {
		if !inputSet[v] {
			t.Fatalf("%s: hull vertex %v not an input point", label, v)
		}
	}
	for _, p := range pts {
		if !Contains(h, p) {
			t.Fatalf("%s: input point %v outside hull %v", label, p, h)
		}
	}
}

func TestMonotoneChainKnown(t *testing.T) {
	square := []Pt{{0, 0}, {1, 0}, {1, 1}, {0, 1}, {0.5, 0.5}}
	h := MonotoneChain(core.Nop, square)
	want := Pts{{0, 0}, {1, 0}, {1, 1}, {0, 1}}
	if !reflect.DeepEqual(h, want) {
		t.Errorf("square hull = %v, want %v", h, want)
	}
}

func TestMonotoneChainDegenerate(t *testing.T) {
	if MonotoneChain(core.Nop, nil) != nil {
		t.Error("empty input should give nil hull")
	}
	one := MonotoneChain(core.Nop, []Pt{{1, 2}})
	if len(one) != 1 || one[0] != (Pt{1, 2}) {
		t.Errorf("single point hull = %v", one)
	}
	dup := MonotoneChain(core.Nop, []Pt{{1, 2}, {1, 2}, {1, 2}})
	if len(dup) != 1 {
		t.Errorf("all-duplicates hull = %v", dup)
	}
	collinear := MonotoneChain(core.Nop, []Pt{{0, 0}, {1, 1}, {2, 2}, {3, 3}})
	if len(collinear) != 2 || collinear[0] != (Pt{0, 0}) || collinear[1] != (Pt{3, 3}) {
		t.Errorf("collinear hull = %v, want extremes", collinear)
	}
	two := MonotoneChain(core.Nop, []Pt{{5, 5}, {0, 0}})
	if len(two) != 2 {
		t.Errorf("two-point hull = %v", two)
	}
}

func TestMonotoneChainRandom(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		pts := RandomPoints(50+trial*13, int64(trial), 100)
		h := MonotoneChain(core.Nop, pts)
		checkHull(t, pts, h, "random")
	}
}

func TestMonotoneChainPropertyQuick(t *testing.T) {
	f := func(raw []struct{ X, Y int8 }) bool {
		pts := make([]Pt, len(raw))
		for i, r := range raw {
			pts[i] = Pt{float64(r.X), float64(r.Y)}
		}
		h := MonotoneChain(core.Nop, pts)
		if !IsConvexCCW(h) {
			return false
		}
		for _, p := range pts {
			if len(h) >= 3 && !Contains(h, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestOneDeepMatchesSequential(t *testing.T) {
	pts := RandomPoints(500, 3, 1000)
	want := MonotoneChain(core.Nop, pts)
	for _, n := range []int{1, 2, 3, 6, 8} {
		blocks := make([][]Pt, n)
		for i := range blocks {
			blocks[i] = pts[i*len(pts)/n : (i+1)*len(pts)/n]
		}
		outs := make([]Pts, n)
		w := spmd.MustWorld(n, machine.IBMSP())
		if _, err := w.Run(func(p *spmd.Proc) {
			outs[p.Rank()] = OneDeepSPMD(p, blocks[p.Rank()])
		}); err != nil {
			t.Fatal(err)
		}
		var got Pts
		for _, o := range outs {
			got = append(got, o...)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: one-deep hull != sequential\ngot  %v\nwant %v", n, got, want)
		}
	}
}

func TestOneDeepV1Modes(t *testing.T) {
	pts := RandomPoints(300, 4, 500)
	const n = 5
	blocks := make([][]Pt, n)
	for i := range blocks {
		blocks[i] = pts[i*len(pts)/n : (i+1)*len(pts)/n]
	}
	a := OneDeepV1(core.Sequential, blocks)
	b := OneDeepV1(core.Concurrent, blocks)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("V1 modes disagree")
	}
	// And V1 assembles to the sequential hull.
	var got Pts
	for _, o := range a {
		got = append(got, o...)
	}
	want := MonotoneChain(core.Nop, pts)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("V1 hull != sequential hull")
	}
}

func TestContains(t *testing.T) {
	h := Pts{{0, 0}, {4, 0}, {4, 4}, {0, 4}}
	if !Contains(h, Pt{2, 2}) || !Contains(h, Pt{0, 0}) || !Contains(h, Pt{4, 2}) {
		t.Error("Contains false negatives")
	}
	if Contains(h, Pt{5, 2}) || Contains(h, Pt{-0.1, 0}) {
		t.Error("Contains false positives")
	}
	if Contains(nil, Pt{0, 0}) {
		t.Error("empty hull contains nothing")
	}
}

// TestPtsPrice: a point list costs 16 bytes a point, and a list of them
// the sum (what AllGather broadcasts).
func TestPtsPrice(t *testing.T) {
	if n := spmd.BytesOf(Pts{{1, 2}, {3, 4}}); n != 32 {
		t.Errorf("BytesOf(Pts) = %d, want 32", n)
	}
	if n := spmd.BytesOf([]Pts{{{1, 2}, {3, 4}}, nil, {{5, 6}}}); n != 48 {
		t.Errorf("BytesOf([]Pts) = %d, want 48", n)
	}
}
