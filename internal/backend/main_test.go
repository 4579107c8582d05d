package backend_test

import (
	"os"
	"testing"

	"repro/internal/backend"
	"repro/internal/backend/dist"
)

// TestMain lets this test binary self-spawn as dist workers: the parity
// table runs the dist backend in its default mode, which re-executes the
// current binary and relies on MaybeWorker to divert those processes into
// the worker loop.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// allBackends is the full backend matrix the parity and flight-recorder
// contracts are pinned over: one virtual-time substrate, one in-process
// wall-clock one, and the remote backend under both of its policies.
func allBackends() []backend.Runner {
	elastic, _ := backend.ByName("elastic")
	return []backend.Runner{backend.Sim(), backend.Real(), dist.New(), elastic}
}
