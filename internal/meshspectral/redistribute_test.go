package meshspectral

import (
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/spmd"
)

// TestRedistributeChainProperty drives random layout chains over random
// grid shapes — the regression net for the empty-intersection deadlock
// class.
func TestRedistributeChainProperty(t *testing.T) {
	f := func(nxRaw, nyRaw, seed uint8) bool {
		nx := int(nxRaw)%12 + 1
		ny := int(nyRaw)%12 + 1
		const procs = 6
		layouts := []Layout{Rows(procs), Cols(procs), Blocks(2, 3), Blocks(3, 2)}
		ok := true
		_, err := spmd.MustWorld(procs, machine.IBMSP()).Run(func(p *spmd.Proc) {
			g := New2D[float64](p, nx, ny, layouts[int(seed)%len(layouts)], 0)
			g.Fill(func(i, j int) float64 { return float64(i*1000 + j) })
			cur := g
			for s := 1; s <= 3; s++ {
				cur = cur.Redistribute(layouts[(int(seed)+s)%len(layouts)])
			}
			x0, x1 := cur.OwnedX()
			y0, y1 := cur.OwnedY()
			for gi := x0; gi < x1; gi++ {
				for gj := y0; gj < y1; gj++ {
					if cur.At(gi, gj) != float64(gi*1000+gj) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
