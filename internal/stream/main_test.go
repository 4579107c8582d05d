package stream_test

import (
	"os"
	"testing"

	"repro/internal/backend/dist"
)

// TestMain lets this test binary self-spawn as dist workers: the stream
// parity table runs the dist backend in its default mode, which
// re-executes the current binary and relies on MaybeWorker to divert
// those processes into the worker loop.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}
