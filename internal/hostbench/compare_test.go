package hostbench

import (
	"strings"
	"testing"
)

func report(pairs ...any) *Report {
	r := &Report{}
	for i := 0; i < len(pairs); i += 2 {
		r.Micros = append(r.Micros, MicroResult{
			Name:    pairs[i].(string),
			NsPerOp: pairs[i+1].(float64),
		})
	}
	return r
}

func TestCompareMicros(t *testing.T) {
	base := report("DistPingPong", 100.0, "DistAllReduce", 50.0, "DistOneDeepWorld", 10.0)

	t.Run("within-slack-passes", func(t *testing.T) {
		fresh := report("DistPingPong", 115.0, "DistAllReduce", 55.0)
		if err := CompareMicros(fresh, base, []string{"DistPingPong", "DistAllReduce"}, 0.20); err != nil {
			t.Errorf("within slack: %v", err)
		}
	})
	t.Run("improvement-passes", func(t *testing.T) {
		fresh := report("DistPingPong", 10.0)
		if err := CompareMicros(fresh, base, []string{"DistPingPong"}, 0.20); err != nil {
			t.Errorf("improvement: %v", err)
		}
	})
	t.Run("regression-fails-with-every-offender", func(t *testing.T) {
		fresh := report("DistPingPong", 130.0, "DistAllReduce", 80.0)
		err := CompareMicros(fresh, base, []string{"DistPingPong", "DistAllReduce"}, 0.20)
		if err == nil {
			t.Fatal("regression passed the gate")
		}
		for _, name := range []string{"DistPingPong", "DistAllReduce"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q omits regressed %s", err, name)
			}
		}
	})
	t.Run("empty-names-compares-intersection", func(t *testing.T) {
		fresh := report("DistPingPong", 99.0, "DistSomethingNew", 1.0, "DistOneDeepWorld", 100.0)
		err := CompareMicros(fresh, base, nil, 0.20)
		if err == nil || !strings.Contains(err.Error(), "DistOneDeepWorld") {
			t.Errorf("err = %v, want DistOneDeepWorld regression", err)
		}
	})
	t.Run("missing-from-baseline-errors", func(t *testing.T) {
		fresh := report("DistSomethingNew", 1.0)
		if err := CompareMicros(fresh, base, []string{"DistSomethingNew"}, 0.20); err == nil {
			t.Error("gating on a benchmark absent from the baseline must error")
		}
	})
	t.Run("missing-from-fresh-errors", func(t *testing.T) {
		fresh := report("DistPingPong", 99.0)
		if err := CompareMicros(fresh, base, []string{"DistAllReduce"}, 0.20); err == nil {
			t.Error("gating on a benchmark absent from the fresh report must error")
		}
	})
	t.Run("gomaxprocs-mismatch-errors", func(t *testing.T) {
		fresh := report("DistPingPong", 10.0)
		fresh.GOMAXPROCS = 4
		oneCore := report("DistPingPong", 100.0)
		oneCore.GOMAXPROCS = 1
		err := CompareMicros(fresh, oneCore, []string{"DistPingPong"}, 0.20)
		if err == nil || !strings.Contains(err.Error(), "GOMAXPROCS=4") || !strings.Contains(err.Error(), "GOMAXPROCS=1") {
			t.Errorf("err = %v, want a GOMAXPROCS mismatch naming both sides", err)
		}
	})
	t.Run("no-shared-benchmarks-errors", func(t *testing.T) {
		fresh := report("Other", 1.0)
		if err := CompareMicros(fresh, base, nil, 0.20); err == nil {
			t.Error("disjoint reports must error rather than gate nothing")
		}
	})
}

func TestReadJSONRoundTrip(t *testing.T) {
	rep := report("DistPingPong", 100.0)
	rep.GoVersion, rep.GOMAXPROCS = "go-test", 1
	var buf strings.Builder
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.GoVersion != "go-test" || len(got.Micros) != 1 || got.Micros[0].NsPerOp != 100 {
		t.Errorf("round trip mangled the report: %+v", got)
	}
}
