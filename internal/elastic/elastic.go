// Package elastic registers the remote backend's fault-tolerant policy
// under its own name. "elastic" is the dist backend (internal/backend/dist)
// with a recovery budget of 3 restarts per rank and 2 minutes, where the
// registry's "dist" entry fails fast: a rank whose worker dies, closes its
// connection or goes silent mid-run re-executes on a replacement worker
// from its checkpoint, and the run completes with results and msg/byte
// meters bit-identical to an uninterrupted one. Transport, worker loop and
// frame protocol are dist's; see its package documentation.
package elastic

import (
	"time"

	"repro/internal/backend"
	"repro/internal/backend/dist"
)

// runner is dist's runner under the registry name "elastic".
type runner struct{ backend.Runner }

func (runner) Name() string { return "elastic" }

func init() {
	backend.Register(runner{dist.New(dist.WithRecovery(3, 2*time.Minute))})
}

// MaybeWorker forwards to dist.MaybeWorker: elastic worlds run on dist's
// workers, so one worker entry point serves both registry names.
func MaybeWorker() { dist.MaybeWorker() }
