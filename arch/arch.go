// Package arch is the public facade of the archetype reproduction: the
// single way to define and run an archetype application.
//
// The paper's central claim is that an archetype is a reusable interface —
// one pattern of dataflow and communication instantiated by many
// applications. This package is that interface's front door:
//
//   - Program[In, Out] abstracts a runnable parallel program over typed
//     input and output, wrapping both the paper's version-1 data-parallel
//     (parfor) programs and version-2 SPMD message-passing programs
//     (constructors ParFor, SPMD, SPMDRoot).
//   - Run executes a Program under a context with functional options
//     (WithProcs, WithMachine, WithBackend, WithMode, WithSize) and
//     returns the typed output together with a Report of the run's cost.
//   - The application registry (Register / Apps / RunApp) holds every
//     application in the repository; each app package self-registers from
//     its init, so drivers (archdemo, archbench, figures) dispatch off the
//     registry instead of hand-maintained tables. Importing repro/arch/apps
//     for side effects populates the registry.
//   - ResolveMachine and ResolveBackend translate the flag-level names
//     ("ibm-sp"; "sim", "real", "dist") into models and runners with
//     uniform "unknown X (have: ...)" errors whose alternatives are
//     listed in sorted order.
//
// Everything a facade user needs is re-exported here (Proc, Comm, Mode,
// ...), so application code imports only this package plus the archetype
// libraries it builds on. Misuse returns errors rather than panicking,
// and cancelling the run's context aborts a run mid-flight with ctx.Err().
package arch

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/spmd"

	// The distributed backend registers itself under both of its policies
	// ("dist" fails fast, "elastic" recovers) so every facade user can
	// resolve them; its default self-spawn mode additionally needs the
	// host binary's main to call dist.MaybeWorker (see cmd/archdemo).
	_ "repro/internal/backend/dist"
)

// Re-exports: the types facade users write programs against, aliased so
// application code needs no internal imports.
type (
	// Proc is one logical process of an SPMD computation.
	Proc = spmd.Proc
	// Comm is the communication-and-cost interface archetype code is
	// written against (a world process or a subgroup view of one).
	Comm = spmd.Comm
	// Machine is a LogGP-style machine cost model.
	Machine = machine.Model
	// Backend is a named execution substrate: the virtual-time simulator
	// ("sim"), the shared-memory real backend ("real"), or the
	// distributed TCP backend ("dist").
	Backend = backend.Runner
	// Mode selects sequential or concurrent execution for version-1
	// (parfor) programs.
	Mode = core.Mode
	// Result is the raw summary of one SPMD run.
	Result = spmd.Result
)

// Version-1 execution modes, re-exported.
const (
	Sequential = core.Sequential
	Concurrent = core.Concurrent
)

// ResolveMachine looks up a machine profile by flag-level name, returning
// a uniform "unknown machine (have: ...)" error for typos.
func ResolveMachine(name string) (*Machine, error) {
	if m, ok := machine.Profiles()[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("unknown machine %q (have: %s)", name, strings.Join(MachineNames(), ", "))
}

// MachineNames returns every built-in machine profile name, sorted.
func MachineNames() []string {
	profiles := machine.Profiles()
	names := make([]string, 0, len(profiles))
	for name := range profiles {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ResolveBackend looks up an execution backend by name, returning a
// uniform "unknown backend (have: ...)" error for typos.
func ResolveBackend(name string) (Backend, error) {
	if r, ok := backend.ByName(name); ok {
		return r, nil
	}
	return nil, fmt.Errorf("unknown backend %q (have: %s)", name, strings.Join(backend.Names(), ", "))
}

// BackendNames returns every registered backend name, sorted.
func BackendNames() []string { return backend.Names() }
