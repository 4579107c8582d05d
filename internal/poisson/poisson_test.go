package poisson

import (
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

func TestSeqConvergesToAnalytic(t *testing.T) {
	pr := Manufactured(33, 33, 1e-7, 0)
	u, res := SolveSeq(core.Nop, pr)
	if res.DiffMax > pr.Tolerance {
		t.Fatalf("did not converge: diffmax %g after %d iterations", res.DiffMax, res.Iterations)
	}
	maxErr := 0.0
	for i := 0; i < pr.NX; i++ {
		for j := 0; j < pr.NY; j++ {
			x, y := pr.XY(i, j)
			maxErr = math.Max(maxErr, math.Abs(u.At(i, j)-Exact(x, y)))
		}
	}
	// Discretization error is O(h²) ≈ 1e-3 at h = 1/32.
	if maxErr > 5e-3 {
		t.Errorf("max error vs analytic = %g, want < 5e-3", maxErr)
	}
	if maxErr < 1e-8 {
		t.Errorf("suspiciously exact (%g): is the solver actually iterating?", maxErr)
	}
}

func TestMaxIterRespected(t *testing.T) {
	pr := Manufactured(17, 17, 0, 5) // tolerance 0: never converges
	_, res := SolveSeq(core.Nop, pr)
	if res.Iterations != 5 {
		t.Errorf("iterations = %d, want 5", res.Iterations)
	}
}

func TestDiffMaxDecreases(t *testing.T) {
	pr := Manufactured(17, 17, 0, 1)
	_, r1 := SolveSeq(core.Nop, pr)
	pr2 := Manufactured(17, 17, 0, 50)
	_, r50 := SolveSeq(core.Nop, pr2)
	if r50.DiffMax >= r1.DiffMax {
		t.Errorf("Jacobi not contracting: diffmax after 50 iters %g >= after 1 iter %g", r50.DiffMax, r1.DiffMax)
	}
}

func TestV1ModesIdentical(t *testing.T) {
	pr := Manufactured(21, 17, 1e-4, 200)
	a, ra := SolveV1(core.Sequential, pr)
	b, rb := SolveV1(core.Concurrent, pr)
	if ra != rb {
		t.Fatalf("results differ: %+v vs %+v", ra, rb)
	}
	for k := range a.Data {
		if a.Data[k] != b.Data[k] {
			t.Fatal("V1 fields differ between modes")
		}
	}
}

func TestV1MatchesSeq(t *testing.T) {
	pr := Manufactured(21, 17, 1e-4, 200)
	a, ra := SolveSeq(core.Nop, pr)
	b, rb := SolveV1(core.Sequential, pr)
	if ra != rb {
		t.Fatalf("results differ: %+v vs %+v", ra, rb)
	}
	for k := range a.Data {
		if a.Data[k] != b.Data[k] {
			t.Fatal("V1 field differs from sequential")
		}
	}
}

func gatherSPMD(t *testing.T, pr *Problem, n int, l meshspectral.Layout) (*array.Dense2D[float64], Result) {
	t.Helper()
	var full *array.Dense2D[float64]
	var res Result
	_, err := spmd.MustWorld(n, machine.IBMSP()).Run(func(p *spmd.Proc) {
		g, r := SolveSPMD(p, pr, l)
		out := meshspectral.GatherGrid(g, 0)
		if p.Rank() == 0 {
			full = out
			res = r
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return full, res
}

// TestSPMDMatchesSeqBitIdentical runs each problem over every layout. The
// manufactured problem's boundary value is 0; the second problem's is
// non-zero and non-symmetric on a non-square grid, so a solver that lost or
// never filled either grid's Dirichlet ring, or swapped the axes, differs.
func TestSPMDMatchesSeqBitIdentical(t *testing.T) {
	linear := &Problem{NX: 23, NY: 31,
		F:         func(x, y float64) float64 { return x - 3*y*y },
		G:         func(x, y float64) float64 { return x + 2*y },
		Tolerance: 1e-4, MaxIter: 300}
	for _, pr := range []*Problem{Manufactured(25, 25, 1e-4, 300), linear} {
		checkSPMDMatchesSeq(t, pr)
	}
}

func checkSPMDMatchesSeq(t *testing.T, pr *Problem) {
	t.Helper()
	want, wres := SolveSeq(core.Nop, pr)
	cases := []struct {
		n int
		l meshspectral.Layout
	}{
		{1, meshspectral.Rows(1)},
		{2, meshspectral.Rows(2)},
		{4, meshspectral.Rows(4)},
		{4, meshspectral.Cols(4)},
		{4, meshspectral.Blocks(2, 2)},
		{6, meshspectral.Blocks(2, 3)},
		{6, meshspectral.Blocks(3, 2)},
	}
	for _, tc := range cases {
		got, res := gatherSPMD(t, pr, tc.n, tc.l)
		if res != wres {
			t.Fatalf("%dx%d n=%d %v: result %+v != sequential %+v", pr.NX, pr.NY, tc.n, tc.l, res, wres)
		}
		for k := range want.Data {
			if got.Data[k] != want.Data[k] {
				t.Fatalf("%dx%d n=%d %v: field differs at %d (not bit-identical)", pr.NX, pr.NY, tc.n, tc.l, k)
			}
		}
	}
}

func TestSPMDResultConsistentAcrossRanks(t *testing.T) {
	pr := Manufactured(17, 17, 1e-7, 5000)
	results := make([]Result, 4)
	errs := make([]float64, 4)
	_, err := spmd.MustWorld(4, machine.IBMSP()).Run(func(p *spmd.Proc) {
		g, r := SolveSPMD(p, pr, meshspectral.Blocks(2, 2))
		results[p.Rank()] = r
		errs[p.Rank()] = MaxError(g, pr)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < 4; r++ {
		if results[r] != results[0] {
			t.Errorf("rank %d result %+v != rank 0 %+v", r, results[r], results[0])
		}
		if errs[r] != errs[0] {
			t.Errorf("rank %d MaxError %g != rank 0 %g", r, errs[r], errs[0])
		}
	}
	if errs[0] > 1e-2 {
		t.Errorf("MaxError = %g, too large", errs[0])
	}
}

func TestSPMDDeterministicMakespan(t *testing.T) {
	pr := Manufactured(17, 17, 1e-3, 50)
	var first float64
	for trial := 0; trial < 3; trial++ {
		res, err := spmd.MustWorld(4, machine.IBMSP()).Run(func(p *spmd.Proc) {
			SolveSPMD(p, pr, meshspectral.Blocks(2, 2))
		})
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Makespan
		} else if res.Makespan != first {
			t.Fatalf("makespan varies: %g vs %g", res.Makespan, first)
		}
	}
}

func TestProblemGeometry(t *testing.T) {
	pr := Manufactured(11, 21, 1e-3, 10)
	if math.Abs(pr.Hx()-0.1) > 1e-15 || math.Abs(pr.Hy()-0.05) > 1e-15 {
		t.Errorf("spacings wrong: %g %g", pr.Hx(), pr.Hy())
	}
	x, y := pr.XY(10, 20)
	if math.Abs(x-1) > 1e-15 || math.Abs(y-1) > 1e-15 {
		t.Errorf("corner maps to (%g,%g), want (1,1)", x, y)
	}
}
