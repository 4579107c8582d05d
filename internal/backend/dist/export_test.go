package dist

import (
	"time"

	"repro/internal/backend"
)

// MaxParked exposes the pool's bound to the external tests.
var MaxParked = maxParked

// Budget exposes a dist runner's recovery budget to the external tests.
func Budget(r backend.Runner) (maxRestarts int, deadline time.Duration) {
	rr := r.(*runner)
	return rr.maxRestarts, rr.deadline
}
