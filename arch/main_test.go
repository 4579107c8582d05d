package arch_test

import (
	"os"
	"testing"

	"repro/internal/backend/dist"
)

// TestMain lets this test binary self-spawn as dist workers for the
// facade-level dist tests.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}
