// Command archworker is a standalone worker for the remote backend
// (internal/backend/dist), under either of the registry names that
// package registers (dist fails fast, elastic recovers): a message
// endpoint run as its own OS process.
//
// The backend usually self-spawns workers by re-executing the
// coordinator's binary (any binary whose main calls dist.MaybeWorker
// supports that, including archdemo and archbench). archworker is the
// standalone alternative — workers started ahead of time, possibly under
// their own supervisor or on another host — and a minimal join client for
// debugging:
//
//	archworker -listen 127.0.0.1:9101            # serve worlds until killed
//	archworker -join  127.0.0.1:54321            # join one world, then exit
//
// A listening worker serves each incoming coordinator connection as one
// world membership (concurrently, so overlapping runs work) and keeps
// listening; a coordinator attaches with the dist backend's WithWorkers
// option, e.g. dist.New(dist.WithWorkers("127.0.0.1:9101", ...)), and
// under a recovery budget redials it (or a spare address) for a rank
// whose worker was lost.
//
// Joins retry their initial dial with exponential backoff and jitter, so
// a worker launched moments before its coordinator attaches instead of
// dying on the first connection-refused. The world token travels in the
// backend's token environment variable.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/backend/dist"
)

func main() {
	dist.MaybeWorker()
	var (
		listen = flag.String("listen", "", "serve worlds for coordinators that dial this address")
		join   = flag.String("join", "", "join the coordinator at this address for one world, then exit")
	)
	flag.Parse()

	switch {
	case *listen != "" && *join == "":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("archworker: serving worlds on %s\n", ln.Addr())
		if err := dist.Serve(ln); err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
	case *join != "" && *listen == "":
		if err := dist.JoinWorld(*join, ""); err != nil {
			fmt.Fprintf(os.Stderr, "archworker: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "archworker: exactly one of -listen or -join is required")
		flag.Usage()
		os.Exit(2)
	}
}
