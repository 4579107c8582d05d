package fft

import (
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
)

// The digests below (golden.Digest) were captured at commit 6dfb2a2,
// before the kernels took two butterfly levels per sweep. The kernel
// tests compare the kernels with refTransform, which a test edit could
// change with them; these compare them with the bits they produced before.

// goldenTwoDSPMD is the forward TwoDSPMD of the fft app's input field
// at 64×64, gathered, at every process count.
const goldenTwoDSPMD = "d96b6020860f02b0788635ff5b5c8ad369a25e6e9229904e7d2facab1346c35b"

// TestTwoDSPMDGolden: the fft app's forward 2D transform at 64×64 on
// the simulator has the captured bits at P ∈ {1, 2, 4}.
func TestTwoDSPMDGolden(t *testing.T) {
	const n = 64
	for _, procs := range []int{1, 2, 4} {
		var got *array.Dense2D[complex128]
		_, err := spmd.MustWorld(procs, machine.IBMSP()).Run(func(p *spmd.Proc) {
			g := meshspectral.New2D[complex128](p, n, n, meshspectral.Rows(procs), 0)
			fill(g)
			if res := meshspectral.GatherGrid(TwoDSPMD(p, g, false), 0); p.Rank() == 0 {
				got = res
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if d := golden.Digest(got.Data); d != goldenTwoDSPMD {
			t.Errorf("P=%d: digest %s, want %s", procs, d, goldenTwoDSPMD)
		}
	}
}

// TestTransformGolden: one forward Transform each of 2^14 points (a
// cached plan, an even log2) and of 2^17 points (a plan built per call,
// an odd log2) has the captured bits.
func TestTransformGolden(t *testing.T) {
	for _, c := range []struct {
		logn int
		want string
	}{
		{14, "e5ebdd88583af471f937c259b9158a24118f4f7c1693747002b855294f29353f"},
		{17, "7153b23d6a15bddbfa8ffe1d59dd761d87392f5bdc909b7b3ee44035647a1640"},
	} {
		a := testInputs(1<<c.logn, int64(c.logn))[0]
		Transform(core.Nop, a, false)
		if d := golden.Digest(a); d != c.want {
			t.Errorf("2^%d: digest %s, want %s", c.logn, d, c.want)
		}
	}
}
