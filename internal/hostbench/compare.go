package hostbench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReadJSON parses a report previously serialized by WriteJSON (a
// committed BENCH_*.json baseline).
func ReadJSON(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("hostbench: parsing baseline: %w", err)
	}
	return &rep, nil
}

// CompareMicros checks a fresh report's latency micros against a
// baseline: a benchmark regresses when its ns/op exceeds the baseline's
// by more than slack (0.20 = 20% headroom for host noise). names
// restricts the comparison to those benchmarks — the regression gate for
// a suite whose other entries are too noisy to gate on — and empty names
// compares every benchmark the two reports share. A named benchmark
// missing from either report is an error: a gate that silently compares
// nothing is worse than no gate. Improvements never fail, whatever their
// size; the returned error aggregates every regression so a failing run
// reports the whole picture at once. Reports taken at different GOMAXPROCS
// are refused outright: the fabric micros run different code paths (same-P
// hand-off at 1, cross-thread wake-ups and the spin phase above it), so
// their ratio says nothing about a regression.
func CompareMicros(fresh, base *Report, names []string, slack float64) error {
	if fresh.GOMAXPROCS != base.GOMAXPROCS {
		return fmt.Errorf("hostbench: fresh report ran at GOMAXPROCS=%d but the baseline at GOMAXPROCS=%d; rerun with GOMAXPROCS=%d",
			fresh.GOMAXPROCS, base.GOMAXPROCS, base.GOMAXPROCS)
	}
	baseline := make(map[string]MicroResult, len(base.Micros))
	for _, m := range base.Micros {
		baseline[m.Name] = m
	}
	if len(names) == 0 {
		for _, m := range fresh.Micros {
			if _, shared := baseline[m.Name]; shared {
				names = append(names, m.Name)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("hostbench: baseline and fresh report share no benchmarks")
		}
	}
	current := make(map[string]MicroResult, len(fresh.Micros))
	for _, m := range fresh.Micros {
		current[m.Name] = m
	}
	var regressions []string
	for _, name := range names {
		b, ok := baseline[name]
		if !ok {
			return fmt.Errorf("hostbench: benchmark %q not in baseline", name)
		}
		f, ok := current[name]
		if !ok {
			return fmt.Errorf("hostbench: benchmark %q not in fresh report", name)
		}
		if limit := b.NsPerOp * (1 + slack); f.NsPerOp > limit {
			regressions = append(regressions, fmt.Sprintf(
				"%s regressed: %.0f ns/op vs baseline %.0f ns/op (limit %.0f at %+.0f%% slack)",
				name, f.NsPerOp, b.NsPerOp, limit, slack*100))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("hostbench: %s", strings.Join(regressions, "; "))
	}
	return nil
}
