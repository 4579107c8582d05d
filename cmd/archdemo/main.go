// Command archdemo runs any one of the reproduction's applications once
// on a simulated machine and prints a verification summary. It is a thin
// shell over the arch facade: the application list, per-app defaults, and
// supported backends all come from the arch registry, which every app
// package populates from its init (pulled in via repro/arch/apps).
//
// Usage:
//
//	archdemo -list
//	archdemo -app mergesort -procs 16
//	archdemo -app poisson -procs 9 -size 65
//	archdemo -app fdtd -machine ibm-sp
//	archdemo -app fft -backend real    # run at hardware speed
//	archdemo -app fft -backend dist    # ... across OS processes over TCP
//
// -backend selects the execution substrate: "sim" prices the run on the
// machine model's virtual clock; "real" runs the processes as goroutines
// over native channels and reports wall-clock time; "dist" runs each
// rank on a worker OS process (self-spawned by re-executing archdemo
// itself) and routes every message over a local socket. The computational result (and
// its verification) is identical on all of them. Interrupting the
// process (Ctrl-C) cancels the run's context and aborts it mid-flight.
//
// archdemo can also serve as a bare dist worker: -worker ADDR joins the
// coordinator listening at ADDR for one world and exits (the self-spawn
// path does this automatically through dist.MaybeWorker).
//
// With -remote URL, archdemo runs nothing locally: it submits the run
// to an archserve daemon at URL (POST /runs), polls to completion, and
// prints the served summary and report — marked "(cached)" when the
// service answered from its persistent result cache instead of
// executing. The names in -app/-machine/-backend are validated by the
// service in that mode, so the client works against any archserve,
// whatever apps and backends it registers.
//
//	archdemo -remote http://localhost:8080 -app mergesort -procs 16
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro/arch"
	_ "repro/arch/apps"
	"repro/internal/backend/dist"
	"repro/internal/serve"
)

func main() {
	dist.MaybeWorker()
	var (
		name   = flag.String("app", "", "application to run (see -list)")
		list   = flag.Bool("list", false, "list applications")
		procs  = flag.Int("procs", 8, "simulated process count")
		size   = flag.Int("size", 0, "problem size (0 = per-app default)")
		mach   = flag.String("machine", "ibm-sp", "machine profile: "+strings.Join(arch.MachineNames(), ", "))
		back   = flag.String("backend", "sim", "execution backend: "+strings.Join(arch.BackendNames(), ", "))
		worker = flag.String("worker", "", "serve as a dist worker for the coordinator at this address, then exit")
		remote = flag.String("remote", "", "submit the run to the archserve daemon at this URL instead of running locally")
		trace  = flag.String("trace", "", "record the run and write Chrome trace-event JSON (ui.perfetto.dev) to this path")
	)
	flag.Parse()

	if *worker != "" {
		if err := dist.JoinWorld(*worker, ""); err != nil {
			fmt.Fprintf(os.Stderr, "archdemo: worker: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list && *remote == "" {
		fmt.Printf("%-10s %-6s %9s  %-13s %s\n", "app", "kind", "size", "backends", "description")
		for _, a := range arch.Apps() {
			fmt.Printf("%-10s %-6s %9d  %-13s %s\n",
				a.Name, a.KindName(), a.DefaultSize, strings.Join(arch.BackendNames(), ","), a.Desc)
		}
		return
	}

	if *remote != "" {
		if *trace != "" {
			fmt.Fprintln(os.Stderr, "archdemo: -trace records local runs; for remote traces submit trace:true and GET /runs/{id}/trace")
			os.Exit(2)
		}
		if err := runRemote(*remote, *list, *name, *procs, *size, *mach, *back); err != nil {
			fmt.Fprintf(os.Stderr, "archdemo: %v\n", err)
			os.Exit(1)
		}
		return
	}
	model, err := arch.ResolveMachine(*mach)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archdemo: %v\n", err)
		os.Exit(2)
	}
	runner, err := arch.ResolveBackend(*back)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archdemo: %v\n", err)
		os.Exit(2)
	}
	if *name == "" {
		fmt.Fprintln(os.Stderr, "archdemo: no -app given (use -list)")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	summary, rep, err := arch.RunApp(ctx, *name,
		arch.WithProcs(*procs),
		arch.WithSize(*size),
		arch.WithMachine(model),
		arch.WithBackend(runner),
		arch.WithTrace(*trace),
	)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archdemo: %v\n", err)
		if _, resolveErr := arch.ResolveApp(*name); resolveErr != nil {
			os.Exit(2)
		}
		os.Exit(1)
	}
	fmt.Printf("%s on %s\n", summary, rep)
	if *trace != "" {
		fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", *trace)
	}
}

// runRemote is archdemo's client mode: list the remote registry or
// submit one run to an archserve daemon and wait for its result. Name
// resolution happens server-side; the flag defaults ("ibm-sp", "sim")
// are sent as-is and the service canonicalizes them.
func runRemote(base string, list bool, name string, procs, size int, mach, back string) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	client := &serve.Client{Base: base}

	if list {
		apps, err := client.Apps(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %-6s %9s  %-13s %s\n", "app", "kind", "size", "backends", "description")
		for _, a := range apps {
			fmt.Printf("%-10s %-6s %9d  %-13s %s\n",
				a.Name, a.Kind, a.DefaultSize, strings.Join(a.Backends, ","), a.Desc)
		}
		return nil
	}
	if name == "" {
		return fmt.Errorf("no -app given (use -list)")
	}
	st, err := client.Submit(ctx, arch.Spec{
		App: name, Size: size, Procs: procs, Machine: mach, Backend: back,
	})
	if err != nil {
		return err
	}
	switch {
	case st.Terminal():
		// Answered at submission (a cache hit or a failed admission).
	case st.Kind == arch.KindStream:
		// A live stream job: follow its SSE feed and narrate each
		// progress window instead of polling quietly.
		last := 0
		st, err = client.Follow(ctx, st.ID, func(ev serve.JobStatus) {
			if ev.Stream != nil && ev.Stream.Window > last {
				last = ev.Stream.Window
				fmt.Printf("window %d: %d elems, %.0f elems/s\n", ev.Stream.Window, ev.Stream.Elems, ev.Stream.Rate)
			}
		})
		if err != nil {
			return err
		}
	default:
		st, err = client.Wait(ctx, st.ID)
		if err != nil {
			return err
		}
	}
	if st.State != serve.StateDone {
		return fmt.Errorf("run %s %s: %s", st.ID[:12], st.State, st.Error)
	}
	tag := ""
	if st.Cached {
		tag = " (cached)"
	}
	fmt.Printf("%s on %s%s\n", st.Summary, *st.Report, tag)
	return nil
}
