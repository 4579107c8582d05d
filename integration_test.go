package repro

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bnb"
	"repro/internal/cfd"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/onedeep"
	"repro/internal/poisson"
	"repro/internal/skyline"
	"repro/internal/sortapp"
	"repro/internal/spmd"
)

// The integration tests exercise whole-paper workflows across module
// boundaries: both archetypes, the collectives beneath them, the machine
// models, and the method's correctness contract (version 1 ≡ version 2),
// in a single world where possible.

// TestEndToEndMethodWorkflow walks the paper's §1.2 program-development
// strategy once for each archetype, asserting the semantics-preservation
// property at every stage.
func TestEndToEndMethodWorkflow(t *testing.T) {
	model := machine.IBMSP()

	// --- One-deep archetype on mergesort.
	data := sortapp.RandomInts(20000, 123)
	spec := sortapp.OneDeepMergesort(onedeep.Centralized)
	const procs = 6
	blocks := sortapp.BlockDistribute(data, procs)
	v1 := onedeep.RunV1(core.Sequential, spec, blocks)
	v1c := onedeep.RunV1(core.Concurrent, spec, blocks)
	if !reflect.DeepEqual(v1, v1c) {
		t.Fatal("one-deep: V1 modes disagree")
	}
	v2 := make([][]int32, procs)
	if _, err := core.Simulate(procs, model, func(p *spmd.Proc) {
		v2[p.Rank()] = onedeep.RunSPMD(p, spec, blocks[p.Rank()])
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("one-deep: V2 differs from V1")
	}

	// --- Mesh-spectral archetype on the Poisson solver.
	pr := poisson.Manufactured(33, 33, 1e-6, 2000)
	uSeq, rSeq := poisson.SolveV1(core.Sequential, pr)
	var identical bool
	if _, err := core.Simulate(procs, model, func(p *spmd.Proc) {
		g, r := poisson.SolveSPMD(p, pr, meshspectral.NearSquare(procs))
		full := meshspectral.GatherGrid(g, 0)
		if p.Rank() == 0 {
			identical = r == rSeq
			for k := range full.Data {
				if full.Data[k] != uSeq.Data[k] {
					identical = false
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !identical {
		t.Fatal("mesh-spectral: V2 differs from V1")
	}
}

// TestMixedArchetypesInOneWorld runs both archetypes plus a reduction in
// the same world — the usage pattern of a real application combining
// library pieces.
func TestMixedArchetypesInOneWorld(t *testing.T) {
	const procs = 4
	data := sortapp.RandomInts(4000, 5)
	blocks := sortapp.BlockDistribute(data, procs)
	spec := sortapp.OneDeepQuicksort(onedeep.Centralized)
	var medianOfMaxes float64
	_, err := core.Simulate(procs, machine.IntelDelta(), func(p *spmd.Proc) {
		// Sort with one archetype...
		sorted := onedeep.RunSPMD(p, spec, blocks[p.Rank()])
		// ...then feed a grid computation whose size depends on it, and
		// reduce the result.
		localMax := float64(-1 << 31)
		if len(sorted) > 0 {
			localMax = float64(sorted[len(sorted)-1])
		}
		g := meshspectral.New2D[float64](p, 16, 16, meshspectral.Rows(procs), 1)
		g.Fill(func(i, j int) float64 { return localMax })
		g.ExchangeBoundary()
		m := collective.AllReduce(p, localMax, math.Max)
		if p.Rank() == 0 {
			medianOfMaxes = m
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(sortapp.MergeSort(core.Nop, data)[len(data)-1])
	if medianOfMaxes != want {
		t.Fatalf("global max %g != %g", medianOfMaxes, want)
	}
}

// TestSkylineThroughFullStack runs the skyline app on the workstation
// model (exercising a third machine profile end to end).
func TestSkylineThroughFullStack(t *testing.T) {
	bs := skyline.RandomBuildings(150, 77, 900)
	want := skyline.Compute(core.Nop, bs)
	const procs = 5
	blocks := make([][]skyline.Building, procs)
	for i := range blocks {
		blocks[i] = bs[i*len(bs)/procs : (i+1)*len(bs)/procs]
	}
	outs := make([]skyline.Skyline, procs)
	res, err := core.Simulate(procs, machine.Workstations(), func(p *spmd.Proc) {
		outs[p.Rank()] = onedeep.RunSPMD(p, skyline.Spec(onedeep.Replicated), blocks[p.Rank()])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !skyline.Equal(skyline.Assemble(outs), want) {
		t.Fatal("skyline through workstation model differs from sequential")
	}
	if res.Msgs == 0 {
		t.Fatal("expected real communication")
	}
}

// TestCFDOnSMPModel exercises a PDE app under the shared-memory profile.
func TestCFDOnSMPModel(t *testing.T) {
	pm := cfd.DefaultParams(32, 16)
	seq := cfd.NewSeq(pm)
	seq.Run(core.Nop, 5)
	var same bool
	if _, err := core.Simulate(4, machine.SMP(), func(p *spmd.Proc) {
		s := cfd.NewSPMD(p, pm, meshspectral.Blocks(2, 2))
		s.Run(5)
		full := meshspectral.GatherGrid(s.U, 0)
		if p.Rank() == 0 {
			same = true
			for k := range full.Data {
				if full.Data[k] != seq.U.Data[k] {
					same = false
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("CFD on SMP model differs from sequential")
	}
}

// TestBnBAcrossMachines checks the branch-and-bound optimum is
// machine-independent (only timing changes with the model).
func TestBnBAcrossMachines(t *testing.T) {
	items := bnb.RandomItems(15, 18, 3)
	want := float64(bnb.KnapsackDP(items, 70))
	for name, m := range machine.Profiles() {
		var got bnb.Result
		if _, err := core.Simulate(4, m, func(p *spmd.Proc) {
			r := bnb.SolveSync(p, bnb.Knapsack(items, 70), 4)
			if p.Rank() == 0 {
				got = r
			}
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Best != want {
			t.Fatalf("%s: optimum %g != %g", name, got.Best, want)
		}
	}
}
