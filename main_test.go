package repro

import (
	"os"
	"testing"

	"repro/internal/backend/dist"
)

// TestMain lets this test binary self-spawn as dist workers for the
// BenchmarkDist* suite (the dist backend's default mode re-executes the
// current binary; MaybeWorker diverts those children into the worker
// loop).
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}
