package hull

import (
	"math"
	"testing"

	"repro/internal/golden"
)

// tapMeter records every charge in call order, as (kind, amount).
type tapMeter []complex128

func (t *tapMeter) Charge(s float64)   { *t = append(*t, complex(0, s)) }
func (t *tapMeter) Flops(n float64)    { *t = append(*t, complex(1, n)) }
func (t *tapMeter) Cmps(n float64)     { *t = append(*t, complex(2, n)) }
func (t *tapMeter) MemWords(n float64) { *t = append(*t, complex(3, n)) }

// TestMonotoneChainGolden pins MonotoneChain's hull and charges to the
// digests captured at d761862, before its sort stopped using reflection:
// the app's default 50,000 points, and 20,000 points on a 48×48 integer
// lattice, where equal coordinates and duplicate points are the rule.
func TestMonotoneChainGolden(t *testing.T) {
	lattice := RandomPoints(20000, 9, 48)
	for i := range lattice {
		lattice[i] = Pt{math.Floor(lattice[i].X), math.Floor(lattice[i].Y)}
	}
	for _, c := range []struct {
		name string
		pts  []Pt
		want string
	}{
		{"random", RandomPoints(50000, 4, 1000), "15058a9e54fb126f5c9e50a3eebf9b41c2282d77ac3ebcfb5bbb7e9ad2f5244e"},
		{"lattice", lattice, "20247a2c2b4e9e102f479eba221816510ab0d8093be488add8cd1adc479d00e6"},
	} {
		var tap tapMeter
		h := MonotoneChain(&tap, c.pts)
		out := make([]complex128, len(h))
		for i, p := range h {
			out[i] = complex(p.X, p.Y)
		}
		if d := golden.Digest(out, tap); d != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, d, c.want)
		}
	}
}
