package closest

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

// TestDivideAndConquerGolden pins DivideAndConquer's pair and charges to
// the digests captured at d761862, before its sorts stopped using
// reflection: the app's default 50,000 points, and 20,000 points on a
// 64×64 integer lattice, where equal coordinates and coincident points
// are the rule.
func TestDivideAndConquerGolden(t *testing.T) {
	lattice := RandomPoints(20000, 9, 64)
	for i := range lattice {
		lattice[i] = Pt{math.Floor(lattice[i].X), math.Floor(lattice[i].Y)}
	}
	for _, c := range []struct {
		name string
		pts  []Pt
		want string
	}{
		{"random", RandomPoints(50000, 5, 1000), "a5ecdff5a8eb0d412c7240d4a0a0621f81ab54b04e086710f3e1a4b7df0c2670"},
		{"lattice", lattice, "30a2585686dd3299bca5165a0ee27ad6e0fa2d52f1ef71655445718d911534b8"},
		{"lattice-sparse", lattice[:300], "721c341a34c097bbdaf322db366218fbd48252d62361e5cdbe92d2cb0997b657"},
	} {
		var tap tapMeter
		p := DivideAndConquer(&tap, c.pts)
		valid := 0.0
		if p.Valid {
			valid = 1
		}
		out := []complex128{complex(p.A.X, p.A.Y), complex(p.B.X, p.B.Y), complex(p.Dist2, valid)}
		if d := golden.Digest(out, tap); d != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, d, c.want)
		}
	}
}
