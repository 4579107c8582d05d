// Package elastic only forwards MaybeWorker to dist. The "elastic"
// backend itself — dist under a recovery budget — is registered by
// internal/backend/dist (see dist.Elastic). The package stays because the
// benchmark harness (bench/main.go and bench/bench_test.go), which is
// kept unchanged so that its measurements stay comparable across
// changes, imports it for this entry point.
package elastic

import "repro/internal/backend/dist"

// MaybeWorker forwards to dist.MaybeWorker: elastic worlds run on dist's
// workers, so one worker entry point serves both registry names.
func MaybeWorker() { dist.MaybeWorker() }
