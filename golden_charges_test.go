package repro

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/arch"
	_ "repro/arch/apps"
)

// goldenCharges pins what the six mesh apps and one-deep mergesort charge
// and send on the simulator: the makespan as exact float64 bits (every
// Flops / MemWords / Cmps call and every message feeds it), the message
// and byte meters, and the one-line result summary. The rows of the five
// grid-operation apps were captured at commit 3f78bfc, before they moved
// from per-point to row-span grid operations; the fft rows at commit
// e2845b9, before its row and column operations moved from per-row /
// per-column callbacks to whole blocks; the mergesort rows at commit
// 0bde52b, before MergeSort's first four passes became one merge network
// per 16 elements (their local blocks of 1000, 500, 250, 1366 and 1367
// elements all end in a partial block of 16); and the three large
// mergesort rows at commit 5ce8f43, before the merges took one source and
// one destination and a lone merge of 4,096 outputs or more began to run
// as two halves (their sorts' top passes and their combines' two-list
// merges all take that path). A kernel change that keeps
// its arithmetic and its charges leaves them untouched, and one that does
// not fails here rather than in a figure table.
var goldenCharges = []struct {
	app         string
	size, procs int
	makespan    uint64
	msgs, bytes int64
	summary     string
}{
	{"poisson", 17, 1, 0x3fa13c018df49fe2, 0, 0, "Poisson 17x17, 629 Jacobi iterations, max error 3.21e-03"},
	{"poisson", 17, 2, 0x3fbbf64eeff70573, 2518, 211376, "Poisson 17x17, 629 Jacobi iterations, max error 3.21e-03"},
	{"poisson", 17, 4, 0x3fc839e54ddf79e5, 10072, 463072, "Poisson 17x17, 629 Jacobi iterations, max error 3.21e-03"},
	{"cfd", 16, 1, 0x3fa0eed02cd39d7f, 0, 0, "CFD shock/interface 16x8, 100 steps to t=0.9334"},
	{"cfd", 16, 2, 0x3fa144b8b5628a42, 600, 233600, "CFD shock/interface 16x8, 100 steps to t=0.9334"},
	{"cfd", 16, 4, 0x3fa40fd9b084d4ff, 2000, 320000, "CFD shock/interface 16x8, 100 steps to t=0.9334"},
	{"airshed", 12, 1, 0x3f9a8be7aa48be76, 0, 0, "airshed 12x12, 100 steps, mean NOx 0.1467"},
	{"airshed", 12, 2, 0x3f9ddedb79690ffa, 401, 136160, "airshed 12x12, 100 steps, mean NOx 0.1467"},
	{"airshed", 12, 4, 0x3fa2c9a5251309aa, 1603, 271488, "airshed 12x12, 100 steps, mean NOx 0.1467"},
	{"fdtd", 8, 1, 0x3f9140499c2b4458, 0, 0, "FDTD cavity 8^3, 50 steps, energy 0.8085"},
	{"fdtd", 8, 2, 0x3f9581660388c573, 202, 307232, "FDTD cavity 8^3, 50 steps, energy 0.8085"},
	{"fdtd", 8, 4, 0x3f932c9063153bb9, 608, 921728, "FDTD cavity 8^3, 50 steps, energy 0.8085"},
	{"swirl", 16, 1, 0x3f9a2fec81c8ee39, 0, 0, "swirl 17x16, 50 steps, kinetic energy 241.9379"},
	{"swirl", 16, 2, 0x3f986b362ee61c99, 201, 226336, "swirl 17x16, 50 steps, kinetic energy 241.9379"},
	{"swirl", 16, 4, 0x3f92e5031e54f360, 1203, 368224, "swirl 17x16, 50 steps, kinetic energy 241.9379"},
	{"fft", 32, 1, 0x3f66504e770671c0, 0, 0, "2D FFT 32x32 forward+inverse (roundtrip error 1.4e-15)"},
	{"fft", 32, 2, 0x3f61f9f764c49f9a, 10, 33056, "2D FFT 32x32 forward+inverse (roundtrip error 1.4e-15)"},
	{"fft", 32, 4, 0x3f56d6b12729e589, 56, 50816, "2D FFT 32x32 forward+inverse (roundtrip error 1.4e-15)"},
	{"mergesort", 1000, 1, 0x3f2e5b34d9fc6039, 0, 0, "one-deep mergesort of 1000 int32 (verified sorted)"},
	{"mergesort", 1000, 2, 0x3f379e36241da7d4, 4, 2108, "one-deep mergesort of 1000 int32 (verified sorted)"},
	{"mergesort", 1000, 4, 0x3f3be3a9981b52cf, 18, 3360, "one-deep mergesort of 1000 int32 (verified sorted)"},
	{"mergesort", 4099, 3, 0x3f478f565e282f81, 10, 11232, "one-deep mergesort of 4099 int32 (verified sorted)"},
	{"mergesort", 131072, 1, 0x3fab28949eb30901, 0, 0, "one-deep mergesort of 131072 int32 (verified sorted)"},
	{"mergesort", 131072, 2, 0x3f9efe1c81317db6, 4, 262828, "one-deep mergesort of 131072 int32 (verified sorted)"},
	{"mergesort", 100003, 3, 0x3f8f8c4185226f58, 10, 267728, "one-deep mergesort of 100003 int32 (verified sorted)"},
}

func TestMeshAppChargesGolden(t *testing.T) {
	sim, err := arch.ResolveBackend("sim")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldenCharges {
		t.Run(fmt.Sprintf("%s@%d/P%d", g.app, g.size, g.procs), func(t *testing.T) {
			summary, rep, err := arch.RunApp(context.Background(), g.app,
				arch.WithBackend(sim), arch.WithProcs(g.procs), arch.WithSize(g.size))
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(rep.Makespan); got != g.makespan {
				t.Errorf("makespan bits %#x (%g s), want %#x (%g s)",
					got, rep.Makespan, g.makespan, math.Float64frombits(g.makespan))
			}
			if rep.Msgs != g.msgs || rep.Bytes != g.bytes {
				t.Errorf("meters %d msgs / %d bytes, want %d / %d", rep.Msgs, rep.Bytes, g.msgs, g.bytes)
			}
			if summary != g.summary {
				t.Errorf("summary %q, want %q", summary, g.summary)
			}
		})
	}
}
