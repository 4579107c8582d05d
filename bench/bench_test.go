package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/internal/backend/dist"
	"repro/internal/elastic"
)

// TestMain lets the test binary self-spawn as dist and elastic workers, so
// the remote workload runs from `go test` as it does from `go run`.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	elastic.MaybeWorker()
	os.Exit(m.Run())
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileAgrees checks that BENCHMARK.json and the code name the
// same workloads and metrics, with the same units, directions and bounds.
func TestBenchmarkFileAgrees(t *testing.T) {
	bf := readBenchmarkFile(t)
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the code's default window is %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].name)
		}
	}
	inFile := map[string]bool{}
	for _, m := range bf.EndToEnd {
		inFile[m.Name] = true
		d, ok := defByName(m.Name)
		if !ok || d.Kind != kindGated || d.Unit != m.Unit || d.better() != m.Better || d.Bound != m.Bound {
			t.Errorf("end_to_end metric %+v does not match the code's %+v", m, d)
		}
	}
	for _, m := range bf.PerLayer {
		inFile[m.Name] = true
		d, ok := defByName(m.Name)
		if !ok || d.Kind != kindLayer || d.Unit != m.Unit || d.better() != m.Better {
			t.Errorf("per_layer metric %+v does not match the code's %+v", m, d)
		}
	}
	for _, d := range defs {
		if d.Kind != kindE2E && !inFile[d.Name] {
			t.Errorf("%s metric %s is missing from BENCHMARK.json", d.Kind, d.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at two rounds (200
// requests, probes at 50 calls) with the real problem sizes, and checks
// that no op fails and that the result line carries every metric
// BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		// In parallel: the smoke checks that metrics exist, not what they
		// read, and two workloads at a time halve its wall time.
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, traced := range []bool{false, true} {
				smoke(t, bf, w, traced)
			}
		})
	}
}

func smoke(t *testing.T, bf benchmarkFile, w workload, traced bool) {
	cfg := config{seed: 1, minRounds: 2, setupReps: 1, probeCalls: 50, roundReqs: 100, traced: traced, outDir: t.TempDir()}
	res, err := runWorkload(cfg, w)
	if err != nil {
		t.Fatalf("traced=%t: %v", traced, err)
	}
	if res.failed != 0 || res.attempted == 0 {
		t.Errorf("traced=%t: %d of %d ops failed", traced, res.failed, res.attempted)
	}
	var out bytes.Buffer
	if err := res.write(&out, traced); err != nil {
		t.Fatalf("traced=%t: %v", traced, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var final finalLine
	if err := json.Unmarshal(lines[len(lines)-1], &final); err != nil {
		t.Fatalf("traced=%t: last line: %v", traced, err)
	}
	want := len(bf.EndToEnd)
	if traced {
		want = len(bf.PerLayer)
	}
	if !final.Correct || len(final.Metrics) != want {
		t.Errorf("traced=%t: correct=%t with %d metrics, want %d", traced, final.Correct, len(final.Metrics), want)
	}
	if traced {
		if _, err := os.Stat(tracePath(cfg, w.name)); err != nil {
			t.Errorf("no trace file: %v", err)
		}
		return
	}
	for _, m := range bf.EndToEnd {
		if v, ok := final.Metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("end_to_end metric %s reads %+v", m.Name, v)
		}
	}
}
