// Command archserve is the archetype service daemon: the app registry
// behind a long-lived HTTP/JSON server with bounded admission and a
// content-addressed persistent result cache.
//
// Usage:
//
//	archserve                              # serve on :8080, cache under the user cache dir
//	archserve -addr 127.0.0.1:9090
//	archserve -cache /var/lib/archserve    # share the cache between restarts/processes
//	archserve -cache off                   # memoryless: recompute every cold request
//	archserve -workers 4 -queue 128       # admission bounds
//
// Endpoints (see internal/serve):
//
//	GET  /apps              the registry
//	POST /runs              submit {"app":..., "size":..., "procs":..., "machine":..., "backend":..., "mode":..., "trace":...}
//	GET  /runs/{id}         poll a job
//	GET  /runs/{id}/events  stream a job (SSE)
//	GET  /runs/{id}/trace   Chrome trace JSON of a trace:true job
//	GET  /metrics           Prometheus metrics
//	GET  /healthz           liveness (uptime, build info, job gauges)
//
// Identical submissions map to one job while the process knows it and
// hit the persistent cache once finished — across restarts too, since
// the cache key is the SHA-256 of the canonical run spec, not anything
// process-local.
// Submissions naming a streaming app (kind "stream") become long-lived
// jobs instead: bounded by -streams, never cached, with per-window
// throughput on the SSE feed and -keepalive comments between events. On
// SIGINT/SIGTERM the daemon stops admitting (503), drains in-flight
// jobs, and exits 0; -drain bounds how long the drain may take before
// remaining jobs are cancelled.
//
// archserve can run "dist"-backend jobs: like archdemo, it self-spawns
// worker processes by re-executing its own binary (dist.MaybeWorker).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	_ "repro/arch/apps"
	"repro/internal/backend/dist"
	"repro/internal/rescache"
	"repro/internal/serve"
)

func main() {
	dist.MaybeWorker()
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		cacheDir = flag.String("cache", "", `persistent result cache directory ("" = per-user default, "off" = disabled)`)
		workers  = flag.Int("workers", 0, "max runs executing concurrently (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "max admitted pending jobs before 429 (0 = 64)")
		streams  = flag.Int("streams", 0, "max stream jobs running concurrently before 429 (0 = 4)")
		keep     = flag.Duration("keepalive", 0, "SSE keep-alive comment interval (0 = 15s, negative = off)")
		drain    = flag.Duration("drain", 30*time.Second, "max time to drain in-flight jobs on shutdown")
		quiet    = flag.Bool("quiet", false, "suppress per-request access logging")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "archserve: ", log.LstdFlags)

	var cache *rescache.Cache
	if *cacheDir != "off" {
		dir := *cacheDir
		if dir == "" {
			base, err := os.UserCacheDir()
			if err != nil {
				base = os.TempDir()
			}
			dir = filepath.Join(base, "archserve")
		}
		var err error
		cache, err = rescache.Open(dir)
		if err != nil {
			logger.Fatalf("open result cache: %v", err)
		}
		logger.Printf("result cache at %s", cache.Dir())
	} else {
		logger.Printf("result cache disabled")
	}

	svc := serve.New(serve.Config{
		Workers:     *workers,
		QueueDepth:  *queue,
		StreamJobs:  *streams,
		KeepAlive:   *keep,
		Cache:       cache,
		LogRequests: !*quiet,
		Log:         logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: svc}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		logger.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Printf("shutdown signal received")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the jobs first while the listener stays up: pollers can
	// still fetch results and new submissions get an honest 503. Only
	// then stop the HTTP server.
	drainErr := svc.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		logger.Printf("drain incomplete: %v", drainErr)
		os.Exit(1)
	}
	fmt.Println("archserve: drained and stopped")
}
