package dist_test

import (
	"context"
	"testing"

	"repro/internal/backend/dist"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"
)

// BenchmarkPingPong mirrors hostbench's DistPingPong (1000 round trips
// of a one-word payload per op on a pooled two-worker world) so the dist
// package's hot path can be profiled in isolation:
//
//	go test ./internal/backend/dist/ -bench PingPong -cpuprofile cpu.out
func BenchmarkPingPong(b *testing.B) {
	model := machine.IBMSP()
	r := dist.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(context.Background(), r, 2, model, func(p *spmd.Proc) {
			peer := 1 - p.Rank()
			msg := []float64{1}
			for round := 0; round < 1000; round++ {
				if p.Rank() == 0 {
					spmd.SendT(p, peer, 1, msg)
					spmd.Recv[[]float64](p, peer, 1)
				} else {
					spmd.Recv[[]float64](p, peer, 1)
					spmd.SendT(p, peer, 1, msg)
				}
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
}
