package collective

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/machine"
	"repro/internal/spmd"
)

func testModel() *machine.Model {
	return &machine.Model{
		Name: "test", FlopTime: 1e-9, CmpTime: 1e-9, MemTime: 1e-9,
		Latency: 10e-6, Bandwidth: 10e6, SendOverhead: 1e-6, RecvOverhead: 1e-6,
	}
}

// worldSizes covers 1, 2, powers of two, and awkward non-powers.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 31}

func runAll(t *testing.T, n int, body func(p *spmd.Proc)) *spmd.Result {
	t.Helper()
	res, err := spmd.MustWorld(n, testModel()).Run(body)
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	return res
}

func TestBroadcastAllRootsAllSizes(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			got := make([]int, n)
			runAll(t, n, func(p *spmd.Proc) {
				v := -1
				if p.Rank() == root {
					v = 1000 + root
				}
				got[p.Rank()] = Broadcast(p, root, v)
			})
			for r, v := range got {
				if v != 1000+root {
					t.Fatalf("n=%d root=%d rank=%d got %d", n, root, r, v)
				}
			}
		}
	}
}

func TestGatherAllRoots(t *testing.T) {
	for _, n := range worldSizes {
		for root := 0; root < n; root++ {
			var gathered []string
			runAll(t, n, func(p *spmd.Proc) {
				g := Gather(p, root, fmt.Sprintf("r%d", p.Rank()))
				if p.Rank() == root {
					gathered = g
				} else if g != nil {
					t.Errorf("non-root got non-nil gather")
				}
			})
			if len(gathered) != n {
				t.Fatalf("n=%d root=%d: gathered %d items", n, root, len(gathered))
			}
			for i, s := range gathered {
				if s != fmt.Sprintf("r%d", i) {
					t.Fatalf("gathered[%d] = %q", i, s)
				}
			}
		}
	}
}

func TestScatter(t *testing.T) {
	for _, n := range worldSizes {
		got := make([]int, n)
		runAll(t, n, func(p *spmd.Proc) {
			var parts []int
			if p.Rank() == 0 {
				parts = make([]int, n)
				for i := range parts {
					parts[i] = i * i
				}
			}
			got[p.Rank()] = Scatter(p, 0, parts)
		})
		for i, v := range got {
			if v != i*i {
				t.Fatalf("n=%d: scatter to %d got %d", n, i, v)
			}
		}
	}
}

func TestAllGatherBothVariants(t *testing.T) {
	for _, n := range worldSizes {
		for _, variant := range []struct {
			name string
			fn   func(p *spmd.Proc, v int) []int
		}{
			{"gather+bcast", func(p *spmd.Proc, v int) []int { return AllGather(p, v) }},
			{"exchange", func(p *spmd.Proc, v int) []int { return AllGatherExchange(p, v) }},
		} {
			results := make([][]int, n)
			runAll(t, n, func(p *spmd.Proc) {
				results[p.Rank()] = variant.fn(p, p.Rank()*7)
			})
			for r, all := range results {
				if len(all) != n {
					t.Fatalf("%s n=%d rank=%d: len %d", variant.name, n, r, len(all))
				}
				for i, v := range all {
					if v != i*7 {
						t.Fatalf("%s n=%d rank=%d: all[%d]=%d", variant.name, n, r, i, v)
					}
				}
			}
		}
	}
}

func TestAllToAll(t *testing.T) {
	for _, n := range worldSizes {
		results := make([][]string, n)
		runAll(t, n, func(p *spmd.Proc) {
			parts := make([]string, n)
			for dst := range parts {
				parts[dst] = fmt.Sprintf("%d->%d", p.Rank(), dst)
			}
			results[p.Rank()] = AllToAll(p, parts)
		})
		for dst := 0; dst < n; dst++ {
			for src := 0; src < n; src++ {
				want := fmt.Sprintf("%d->%d", src, dst)
				if results[dst][src] != want {
					t.Fatalf("n=%d: results[%d][%d]=%q want %q", n, dst, src, results[dst][src], want)
				}
			}
		}
	}
}

func TestReduceDeterministicOrder(t *testing.T) {
	// Reduce at the root folds in ascending rank order; with string
	// concatenation (non-commutative) this is directly observable.
	for _, n := range worldSizes {
		var got string
		runAll(t, n, func(p *spmd.Proc) {
			r := Reduce(p, 0, fmt.Sprintf("%d.", p.Rank()), func(a, b string) string { return a + b })
			if p.Rank() == 0 {
				got = r
			}
		})
		want := ""
		for i := 0; i < n; i++ {
			want += fmt.Sprintf("%d.", i)
		}
		if got != want {
			t.Fatalf("n=%d: reduce = %q, want %q", n, got, want)
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, n := range worldSizes {
		results := make([]int, n)
		runAll(t, n, func(p *spmd.Proc) {
			results[p.Rank()] = AllReduce(p, p.Rank()+1, func(a, b int) int { return a + b })
		})
		want := n * (n + 1) / 2
		for r, v := range results {
			if v != want {
				t.Fatalf("n=%d rank=%d: allreduce = %d, want %d", n, r, v, want)
			}
		}
	}
}

func TestAllReduceMax(t *testing.T) {
	for _, n := range worldSizes {
		results := make([]float64, n)
		runAll(t, n, func(p *spmd.Proc) {
			local := math.Sin(float64(p.Rank()) * 1.7)
			results[p.Rank()] = AllReduce(p, local, math.Max)
		})
		want := results[0]
		var expect float64 = math.Inf(-1)
		for i := 0; i < n; i++ {
			expect = math.Max(expect, math.Sin(float64(i)*1.7))
		}
		for r, v := range results {
			if v != want {
				t.Fatalf("n=%d: rank %d disagrees: %g vs %g", n, r, v, want)
			}
		}
		if want != expect {
			t.Fatalf("n=%d: allreduce max = %g, want %g", n, want, expect)
		}
	}
}

func TestAllReduceIdenticalEverywhereNonCommutative(t *testing.T) {
	// With floating-point addition the tree order is fixed, so every
	// process must get the bit-identical result.
	for _, n := range worldSizes {
		results := make([]float64, n)
		runAll(t, n, func(p *spmd.Proc) {
			local := 1.0 / float64(p.Rank()+3)
			results[p.Rank()] = AllReduce(p, local, func(a, b float64) float64 { return a + b })
		})
		for r := 1; r < n; r++ {
			if results[r] != results[0] {
				t.Fatalf("n=%d: rank %d result %g != rank 0 result %g", n, r, results[r], results[0])
			}
		}
	}
}

func TestAllReduceGBMatchesSequentialFold(t *testing.T) {
	for _, n := range worldSizes {
		results := make([]string, n)
		runAll(t, n, func(p *spmd.Proc) {
			results[p.Rank()] = AllReduceGB(p, fmt.Sprintf("%d.", p.Rank()), func(a, b string) string { return a + b })
		})
		want := ""
		for i := 0; i < n; i++ {
			want += fmt.Sprintf("%d.", i)
		}
		for r, v := range results {
			if v != want {
				t.Fatalf("n=%d rank=%d: %q want %q", n, r, v, want)
			}
		}
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	for _, n := range []int{2, 3, 8, 13} {
		res := runAll(t, n, func(p *spmd.Proc) {
			// Stagger the clocks, then barrier.
			p.Charge(float64(p.Rank()) * 1e-3)
			Barrier(p)
		})
		maxPre := float64(n-1) * 1e-3
		for r, c := range res.Clocks {
			if c < maxPre {
				t.Fatalf("n=%d: rank %d clock %g below pre-barrier max %g", n, r, c, maxPre)
			}
		}
	}
}

func TestMaxClock(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		got := make([]float64, n)
		runAll(t, n, func(p *spmd.Proc) {
			p.Charge(float64(p.Rank()+1) * 1e-3)
			got[p.Rank()] = MaxClock(p)
		})
		for r := 1; r < n; r++ {
			if got[r] != got[0] {
				t.Fatalf("n=%d: MaxClock disagrees across ranks", n)
			}
		}
		if got[0] < float64(n)*1e-3 {
			t.Fatalf("n=%d: MaxClock %g below true max %g", n, got[0], float64(n)*1e-3)
		}
	}
}

func TestBroadcastLogDepth(t *testing.T) {
	// A binomial broadcast of a zero-byte token across n processes should
	// take about ceil(log2 n) message times on the critical path, far
	// less than a linear n-1 chain.
	m := testModel()
	n := 64
	res, err := spmd.MustWorld(n, m).Run(func(p *spmd.Proc) {
		Broadcast(p, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	per := m.MsgTime(8)
	depth := res.Makespan / per
	if depth > 8 { // log2(64)=6, allow slack for overhead accounting
		t.Errorf("broadcast depth = %.1f message times, want ~6", depth)
	}
}

// TestNonPowerOfTwoMessageCounts pins down the communication volume of
// the collectives at awkward process counts (P = 3, 5, 7), where the
// recursive-doubling pre/post adjustment and binomial-tree remainders
// kick in. Counts are exact: the typed, self-metering send layer must
// price exactly the messages the algorithms specify.
func TestNonPowerOfTwoMessageCounts(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		// AllToAll: every process sends to every other, once.
		res := runAll(t, n, func(p *spmd.Proc) {
			parts := make([]int, n)
			AllToAll(p, parts)
		})
		if want := int64(n * (n - 1)); res.Msgs != want {
			t.Errorf("n=%d: AllToAll sent %d msgs, want %d", n, res.Msgs, want)
		}

		// Broadcast: a binomial tree delivers to every non-root exactly
		// once — N-1 messages total.
		res = runAll(t, n, func(p *spmd.Proc) { Broadcast(p, 0, 1.0) })
		if want := int64(n - 1); res.Msgs != want {
			t.Errorf("n=%d: Broadcast sent %d msgs, want %d", n, res.Msgs, want)
		}

		// Gather: linear, N-1 messages into the root.
		res = runAll(t, n, func(p *spmd.Proc) { Gather(p, 0, p.Rank()) })
		if want := int64(n - 1); res.Msgs != want {
			t.Errorf("n=%d: Gather sent %d msgs, want %d", n, res.Msgs, want)
		}

		// AllReduce with recursive doubling and rem = N - 2^floor(log2 N)
		// folded ranks: 2*rem fold/unfold messages plus log2(pof2) rounds
		// of pairwise exchange among the power-of-two survivors.
		pof2 := 1
		log2 := 0
		for pof2*2 <= n {
			pof2 *= 2
			log2++
		}
		rem := n - pof2
		res = runAll(t, n, func(p *spmd.Proc) {
			AllReduce(p, float64(p.Rank()), func(a, b float64) float64 { return a + b })
		})
		if want := int64(2*rem + pof2*log2); res.Msgs != want {
			t.Errorf("n=%d: AllReduce sent %d msgs, want %d", n, res.Msgs, want)
		}

		// Barrier: dissemination, ceil(log2 N) rounds of N messages.
		rounds := 0
		for mask := 1; mask < n; mask <<= 1 {
			rounds++
		}
		res = runAll(t, n, func(p *spmd.Proc) { Barrier(p) })
		if want := int64(rounds * n); res.Msgs != want {
			t.Errorf("n=%d: Barrier sent %d msgs, want %d", n, res.Msgs, want)
		}
	}
}

// TestAllReduceBytesNonPowerOfTwo checks the metered byte volume at
// P = 3, 5, 7: every recursive-doubling partial carries its payload plus
// the 8-byte origin-rank word, priced automatically as an spmd.Wrapped.
func TestAllReduceBytesNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		res := runAll(t, n, func(p *spmd.Proc) {
			AllReduce(p, float64(p.Rank()), func(a, b float64) float64 { return a + b })
		})
		pof2 := 1
		log2 := 0
		for pof2*2 <= n {
			pof2 *= 2
			log2++
		}
		rem := n - pof2
		// Fold-in and exchange messages carry a 16-byte partial (float64
		// + rank word); the unfold result message carries a bare float64.
		want := int64(rem*16 + pof2*log2*16 + rem*8)
		if res.Bytes != want {
			t.Errorf("n=%d: AllReduce moved %d bytes, want %d", n, res.Bytes, want)
		}
	}
}

func TestAllReducePropertyRandomSizes(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed)%20 + 1
		results := make([]int64, n)
		_, err := spmd.MustWorld(n, testModel()).Run(func(p *spmd.Proc) {
			v := int64(p.Rank()*p.Rank() + 1)
			results[p.Rank()] = AllReduce(p, v, func(a, b int64) int64 { return a + b })
		})
		if err != nil {
			return false
		}
		var want int64
		for i := 0; i < n; i++ {
			want += int64(i*i + 1)
		}
		for _, v := range results {
			if v != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPartialPrice: a recursive-doubling partial's wire form costs its
// payload's table price plus the rank word, and pricing the boxed wire
// form of a partial[float64] allocates nothing.
func TestPartialPrice(t *testing.T) {
	check := func(name string, w spmd.Wrapped, v any) {
		t.Helper()
		if got, want := spmd.BytesOf(w), spmd.BytesOf(v)+8; got != want {
			t.Errorf("BytesOf(partial[%s].wire()) = %d, want %d", name, got, want)
		}
	}
	check("float64", partial[float64]{V: 1.5}.wire(), 1.5)
	check("int", partial[int]{V: 7}.wire(), 7)
	check("int64", partial[int64]{V: 7}.wire(), int64(7))
	check("float32", partial[float32]{V: 1.5}.wire(), float32(1.5))
	check("[2]int64", partial[[2]int64]{V: [2]int64{1, 2}}.wire(), [2]int64{1, 2})
	check("[]float64", partial[[]float64]{V: []float64{1, 2, 3}}.wire(), []float64{1, 2, 3})

	var s any = partial[float64]{MinRank: 1, V: math.Pi}.wire() // the boxes a send pays
	if n := testing.AllocsPerRun(100, func() { _ = spmd.BytesOf(s) }); n != 0 {
		t.Errorf("pricing a partial[float64]'s wire form allocates %.0f objects, want 0", n)
	}
}
