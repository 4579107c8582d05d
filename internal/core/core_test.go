package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/machine"
)

func TestParForSequentialOrder(t *testing.T) {
	var order []int
	ParFor(Sequential, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential ParFor out of order: %v", order)
		}
	}
}

func TestParForConcurrentRunsAll(t *testing.T) {
	var count int64
	seen := make([]int64, 100)
	ParFor(Concurrent, 100, func(i int) {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&seen[i], 1)
	})
	if count != 100 {
		t.Fatalf("ran %d iterations, want 100", count)
	}
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("iteration %d ran %d times", i, v)
		}
	}
}

func TestParForModesEquivalentForIndependentBodies(t *testing.T) {
	// The paper's claim for deterministic programs with independent
	// iterations: both modes produce identical results.
	n := 64
	a := make([]int, n)
	b := make([]int, n)
	ParFor(Sequential, n, func(i int) { a[i] = i * i })
	ParFor(Concurrent, n, func(i int) { b[i] = i * i })
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("modes disagree at %d", i)
		}
	}
}

func TestParForConcurrentLargeN(t *testing.T) {
	// The chunked implementation must still visit every index exactly
	// once at iteration counts far beyond any sane goroutine budget.
	const n = 1 << 20
	marks := make([]int32, n)
	ParFor(Concurrent, n, func(i int) { atomic.AddInt32(&marks[i], 1) })
	for i, v := range marks {
		if v != 1 {
			t.Fatalf("iteration %d ran %d times", i, v)
		}
	}
}

func TestParForFewerIterationsThanWorkers(t *testing.T) {
	var count int64
	ParFor(Concurrent, 1, func(i int) {
		if i != 0 {
			t.Errorf("iteration index %d, want 0", i)
		}
		atomic.AddInt64(&count, 1)
	})
	if count != 1 {
		t.Fatalf("ran %d iterations, want 1", count)
	}
}

func TestParForZeroIterations(t *testing.T) {
	ran := false
	ParFor(Sequential, 0, func(int) { ran = true })
	ParFor(Concurrent, 0, func(int) { ran = true })
	if ran {
		t.Error("body ran for n=0")
	}
}

func TestModeString(t *testing.T) {
	if Sequential.String() != "sequential" || Concurrent.String() != "concurrent" {
		t.Error("mode names wrong")
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Error("unknown mode should include value")
	}
}

func TestTallyAccumulates(t *testing.T) {
	m := machine.IBMSP()
	tl := NewTally(m)
	tl.Flops(100)
	tl.Cmps(10)
	tl.MemWords(4)
	tl.Charge(1e-6)
	want := 100*m.FlopTime + 10*m.CmpTime + 4*m.MemTime + 1e-6
	if diff := tl.Seconds - want; diff > 1e-18 || diff < -1e-18 {
		t.Errorf("tally = %g, want %g", tl.Seconds, want)
	}
}

func TestNopMeterDiscards(t *testing.T) {
	Nop.Flops(1e9)
	Nop.Cmps(1e9)
	Nop.MemWords(1e9)
	Nop.Charge(1e9) // must not panic or affect anything
}

func TestWriteTable(t *testing.T) {
	c1 := &Curve{Name: "alg-a", Points: []Point{{Procs: 1, Speedup: 1}, {Procs: 2, Speedup: 1.9}}}
	c2 := &Curve{Name: "alg-b", Points: []Point{{Procs: 1, Speedup: 1}, {Procs: 2, Speedup: 1.2}}}
	var buf bytes.Buffer
	if err := WriteTable(&buf, c1, c2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"procs", "perfect", "alg-a", "alg-b", "1.90", "1.20"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if err := WriteTable(&buf); err != nil {
		t.Errorf("empty table should be a no-op: %v", err)
	}
}

// errAfterWriter fails every write after the first n bytes, for testing
// error propagation.
type errAfterWriter struct {
	n       int
	written int
}

func (w *errAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, fmt.Errorf("write limit %d exceeded", w.n)
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteTablePropagatesErrors(t *testing.T) {
	c := &Curve{Name: "alg", Points: []Point{{Procs: 1, Speedup: 1}, {Procs: 2, Speedup: 1.9}}}
	// A full render needs well over 40 bytes; every truncation point must
	// surface the write error rather than dropping it.
	for _, limit := range []int{0, 10, 20, 30, 40} {
		if err := WriteTable(&errAfterWriter{n: limit}, c); err == nil {
			t.Errorf("WriteTable with %d-byte writer: error dropped", limit)
		}
	}
}

func TestPowersOfTwo(t *testing.T) {
	got := PowersOfTwo(64)
	want := []int{1, 2, 4, 8, 16, 32, 64}
	if len(got) != len(want) {
		t.Fatalf("PowersOfTwo(64) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PowersOfTwo(64) = %v", got)
		}
	}
	if len(PowersOfTwo(0)) != 0 {
		t.Error("PowersOfTwo(0) should be empty")
	}
}
