package onedeep

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// sumSpec is a minimal integer application exercising both phases:
// split partitions values by parity-of-bucket, solve doubles each value,
// merge re-buckets by magnitude. It is contrived but fully deterministic,
// so skeleton behaviour is directly checkable.
func sumSpec(strategy ParamStrategy) *Spec[[]int, []int, int, int] {
	ex := func() *Exchange[[]int, int] {
		return &Exchange[[]int, int]{
			Strategy: strategy,
			Sample: func(m core.Meter, local []int) int {
				s := 0
				for _, v := range local {
					s += v
				}
				return s
			},
			Plan: func(m core.Meter, samples []int) int {
				s := 0
				for _, v := range samples {
					s += v
				}
				return s
			},
			Partition: func(m core.Meter, local []int, total, n int) [][]int {
				parts := make([][]int, n)
				for _, v := range local {
					b := v % n
					if b < 0 {
						b += n
					}
					parts[b] = append(parts[b], v)
				}
				return parts
			},
			Combine: func(m core.Meter, parts [][]int) []int {
				var out []int
				for _, p := range parts {
					out = append(out, p...)
				}
				return out
			},
		}
	}
	return &Spec[[]int, []int, int, int]{
		Name:  "bucket-double",
		Split: ex(),
		Solve: func(m core.Meter, local []int) []int {
			out := make([]int, len(local))
			for i, v := range local {
				out[i] = 2 * v
			}
			return out
		},
		Merge: ex(),
	}
}

func inputsFor(n int) [][]int {
	in := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < 10; j++ {
			in[i] = append(in[i], i*17+j*3)
		}
	}
	return in
}

func TestV1SequentialEqualsConcurrent(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		in := inputsFor(n)
		a := RunV1(core.Sequential, sumSpec(Centralized), in)
		b := RunV1(core.Concurrent, sumSpec(Centralized), in)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("n=%d: V1 modes disagree", n)
		}
	}
}

func TestV1EqualsSPMDBothStrategies(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8} {
		in := inputsFor(n)
		for _, strat := range []ParamStrategy{Centralized, Replicated} {
			spec := sumSpec(strat)
			v1 := RunV1(core.Sequential, spec, in)
			v2 := make([][]int, n)
			w := spmd.MustWorld(n, machine.IBMSP())
			if _, err := w.Run(func(p *spmd.Proc) {
				v2[p.Rank()] = RunSPMD(p, spec, in[p.Rank()])
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(v1, v2) {
				t.Fatalf("n=%d strat=%v: V1 != SPMD\nv1=%v\nv2=%v", n, strat, v1, v2)
			}
		}
	}
}

func TestDegeneratePhases(t *testing.T) {
	// Spec with both phases degenerate: solve only.
	spec := &Spec[[]int, int, struct{}, struct{}]{
		Name: "sum-only",
		Solve: func(m core.Meter, local []int) int {
			s := 0
			for _, v := range local {
				s += v
			}
			return s
		},
	}
	in := [][]int{{1, 2}, {3, 4}, {5}}
	got := RunV1(core.Sequential, spec, in)
	if !reflect.DeepEqual(got, []int{3, 7, 5}) {
		t.Errorf("degenerate V1 = %v", got)
	}
	out := make([]int, 3)
	w := spmd.MustWorld(3, machine.IBMSP())
	res, err := w.Run(func(p *spmd.Proc) {
		out[p.Rank()] = RunSPMD(p, spec, in[p.Rank()])
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, got) {
		t.Errorf("degenerate SPMD = %v", out)
	}
	if res.Msgs != 0 {
		t.Errorf("fully degenerate spec should send no messages, sent %d", res.Msgs)
	}
}

func TestSpecValidation(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Solve") {
			t.Errorf("expected Solve validation panic, got %v", r)
		}
	}()
	spec := &Spec[[]int, int, struct{}, struct{}]{Name: "broken"}
	RunV1(core.Sequential, spec, [][]int{{1}})
}

func TestExchangeValidation(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected incomplete exchange to panic")
		}
	}()
	spec := &Spec[[]int, []int, int, int]{
		Name:  "half-exchange",
		Split: &Exchange[[]int, int]{Sample: func(core.Meter, []int) int { return 0 }},
		Solve: func(m core.Meter, l []int) []int { return l },
	}
	RunV1(core.Sequential, spec, [][]int{{1}})
}

func TestPartitionArityChecked(t *testing.T) {
	spec := &Spec[[]int, []int, int, int]{
		Name: "bad-arity",
		Split: &Exchange[[]int, int]{
			Sample:    func(core.Meter, []int) int { return 0 },
			Plan:      func(core.Meter, []int) int { return 0 },
			Partition: func(m core.Meter, l []int, p, n int) [][]int { return [][]int{l} }, // wrong: always 1
			Combine: func(m core.Meter, parts [][]int) []int {
				var out []int
				for _, p := range parts {
					out = append(out, p...)
				}
				return out
			},
		},
		Solve: func(m core.Meter, l []int) []int { return l },
	}
	defer func() {
		if recover() == nil {
			t.Error("expected arity panic")
		}
	}()
	RunV1(core.Sequential, spec, [][]int{{1}, {2}})
}

func TestParamStrategyString(t *testing.T) {
	if Centralized.String() != "centralized" || Replicated.String() != "replicated" {
		t.Error("strategy names wrong")
	}
	if !strings.Contains(ParamStrategy(5).String(), "5") {
		t.Error("unknown strategy should include value")
	}
}

func TestRecursiveSkeletonSum(t *testing.T) {
	// Recursive sum-of-slice: checks tree routing and merge ordering.
	rec := &Recursive[[]int, int]{
		Name:      "tree-sum",
		Threshold: 2,
		Size:      func(d []int) int { return len(d) },
		Split: func(m core.Meter, d []int) ([]int, []int) {
			return d[:len(d)/2], d[len(d)/2:]
		},
		Base: func(m core.Meter, d []int) int {
			s := 0
			for _, v := range d {
				s += v
			}
			return s
		},
		Merge: func(m core.Meter, a, b int) int { return a + b },
	}
	data := make([]int, 100)
	want := 0
	for i := range data {
		data[i] = i
		want += i
	}
	if got := rec.SolveSeq(core.Nop, data); got != want {
		t.Fatalf("SolveSeq = %d, want %d", got, want)
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		var got int
		w := spmd.MustWorld(n, machine.IBMSP())
		if _, err := w.Run(func(p *spmd.Proc) {
			r := rec.RunSPMD(p, data)
			if p.Rank() == 0 {
				got = r
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: RunSPMD = %d, want %d", n, got, want)
		}
	}
}

func TestRecursiveValidation(t *testing.T) {
	rec := &Recursive[[]int, int]{Name: "incomplete", Threshold: 1}
	defer func() {
		if recover() == nil {
			t.Error("expected validation panic")
		}
	}()
	rec.SolveSeq(core.Nop, []int{1})
}

func TestRecursiveMergeOrderIsTreeOrder(t *testing.T) {
	// With a non-commutative merge (string concat), the SPMD tree must
	// produce the same left-to-right order as sequential recursion.
	rec := &Recursive[[]byte, string]{
		Name:      "concat",
		Threshold: 1,
		Size:      func(d []byte) int { return len(d) },
		Split: func(m core.Meter, d []byte) ([]byte, []byte) {
			return d[:len(d)/2], d[len(d)/2:]
		},
		Base: func(m core.Meter, d []byte) string {
			if len(d) == 0 {
				return ""
			}
			return string(d[:1])
		},
		Merge: func(m core.Meter, a, b string) string { return a + b },
	}
	data := []byte("abcdefgh")
	want := rec.SolveSeq(core.Nop, data)
	if want != "abcdefgh" {
		t.Fatalf("SolveSeq = %q", want)
	}
	for _, n := range []int{2, 4, 8} {
		var got string
		w := spmd.MustWorld(n, machine.IBMSP())
		if _, err := w.Run(func(p *spmd.Proc) {
			r := rec.RunSPMD(p, data)
			if p.Rank() == 0 {
				got = r
			}
		}); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("n=%d: tree order %q != sequential %q", n, got, want)
		}
	}
}
