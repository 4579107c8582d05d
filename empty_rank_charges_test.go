package repro

import (
	"testing"

	"repro/internal/airshed"
	"repro/internal/cfd"
	"repro/internal/fdtd"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/meshspectral"
	"repro/internal/spmd"
	"repro/internal/swirl"
)

// chargeLog records a rank's charges in call order, as (kind, amount).
type chargeLog struct {
	spmd.Comm
	log []complex128
}

func (c *chargeLog) Charge(s float64)   { c.log = append(c.log, complex(0, s)); c.Comm.Charge(s) }
func (c *chargeLog) Flops(n float64)    { c.log = append(c.log, complex(1, n)); c.Comm.Flops(n) }
func (c *chargeLog) Cmps(n float64)     { c.log = append(c.log, complex(2, n)); c.Comm.Cmps(n) }
func (c *chargeLog) MemWords(n float64) { c.log = append(c.log, complex(3, n)); c.Comm.MemWords(n) }

// TestMeshChargesOnEmptyRanks pins every charge, in order, that each rank
// of the four mesh apps with grid operations makes in two steps on a
// world with more ranks than grid rows (or slab planes), so that some
// ranks own no point and some regions clip to nothing there. The digests
// were captured at 3bb4538, before the grid operations moved from per-row
// closures to views: a phase that charges a region clipped to nothing,
// even Flops(0), or skips a charge the closures made, fails here.
// TestMeshAppChargesGolden's worlds give every rank a point.
func TestMeshChargesOnEmptyRanks(t *testing.T) {
	for _, c := range []struct {
		name  string
		procs int
		step  func(p spmd.Comm) func()
		want  string
	}{
		{"airshed 3x3", 16, func(p spmd.Comm) func() {
			return airshed.NewSPMD(p, airshed.DefaultParams(3, 3), meshspectral.NearSquare(16)).Step
		}, "d95cec7e4c8cf04a3f06ac00d371fe3ce1c4a757505cbb32e4571df72fe654d6"},
		{"cfd 3x4", 4, func(p spmd.Comm) func() {
			s := cfd.NewSPMD(p, cfd.DefaultParams(3, 4), meshspectral.Rows(4))
			return func() { s.Step() }
		}, "91d9dc530f7f767cdc0574b917a07c49e223c7224c7f25814dbb67681caf58b4"},
		{"swirl 3x2", 4, func(p spmd.Comm) func() { return swirl.NewSPMD(p, swirl.DefaultParams(3, 2)).Step }, "0897ef201e2d641fc3b12b0333885c7b8ef0252b50cbfabca8d07c65681cc831"},
		{"fdtd 3", 4, func(p spmd.Comm) func() {
			s := fdtd.NewSPMD(p, fdtd.DefaultParams(3))
			return func() { s.Step(); s.Energy() }
		}, "9c5b2df18f69bda410c8e2d27833be3d4c4f96928e82045fe5c6cbfc83813900"},
	} {
		logs := make([][]complex128, c.procs)
		if _, err := spmd.MustWorld(c.procs, machine.IBMSP()).Run(func(p *spmd.Proc) {
			tap := &chargeLog{Comm: p}
			step := c.step(tap)
			tap.log = nil
			step()
			step()
			logs[p.Rank()] = tap.log
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if d := golden.Digest(logs...); d != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, d, c.want)
		}
	}
}
