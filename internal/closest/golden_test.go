package closest

import (
	"math"
	"math/rand"
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

// TestDivideAndConquerGoldenSmall pins the pair and charges of every size
// from 0 to 96 points, captured at 3bb4538, before the recursion merged
// its y orders between two buffers allocated once. On an 8×8 integer
// lattice most sizes hold coincident points. Distinct points of a 10×10
// lattice tie at distance 1 everywhere, so the pair found is the first in
// the strip's y order: a merge that puts the right half first on equal y
// changes it.
func TestDivideAndConquerGoldenSmall(t *testing.T) {
	for _, c := range []struct {
		name string
		pts  func(n int) []Pt
		want string
	}{
		{"lattice", func(n int) []Pt {
			pts := RandomPoints(n, int64(n), 8)
			for i, p := range pts {
				pts[i] = Pt{math.Floor(p.X), math.Floor(p.Y)}
			}
			return pts
		}, "1476a41f6cdb7488a13fd049ec0669ac2252c8ba5e9e7024ba1226b931511ff4"},
		{"distinct", func(n int) []Pt {
			pts := make([]Pt, n)
			for i, k := range rand.New(rand.NewSource(int64(n))).Perm(100)[:n] {
				pts[i] = Pt{float64(k % 10), float64(k / 10)}
			}
			return pts
		}, "ff544b11dbfbab4b30aaf2c27b50f7648ac8c4b3b2fc6408a6946fc48ad1f00e"},
	} {
		var out []complex128
		var tap tapMeter
		for n := 0; n <= 96; n++ {
			p := DivideAndConquer(&tap, c.pts(n))
			valid := 0.0
			if p.Valid {
				valid = 1
			}
			out = append(out, complex(p.A.X, p.A.Y), complex(p.B.X, p.B.Y), complex(p.Dist2, valid))
		}
		if d := golden.Digest(out, tap); d != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, d, c.want)
		}
	}
}
