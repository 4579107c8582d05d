package arch

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/machine"
)

// Spec names one registry-app run in flag-level, serializable terms: the
// app name plus the five knobs every driver exposes (size, procs,
// machine, backend, mode). It is the wire form of a run — what the
// archetype service accepts over HTTP, what the persistent result cache
// derives its content address from, and what a client would replay to
// reproduce a result. A Spec carries names, not resolved objects, so two
// processes (or two runs of one process) agree on what it means.
//
// The zero value of every field means "the default": Canonical fills
// them in (per-app default size, 8 procs, the default machine profile
// and backend, concurrent mode) so that a partially-specified Spec and
// its fully-spelled-out equivalent canonicalize — and therefore hash —
// identically.
type Spec struct {
	// App is the registry name of the application ("mergesort", ...).
	App string `json:"app"`
	// Size is the problem size; 0 means the app's default.
	Size int `json:"size"`
	// Procs is the SPMD process count; 0 means the default (8).
	Procs int `json:"procs"`
	// Machine is the machine-profile name; "" means the default profile.
	Machine string `json:"machine"`
	// Backend is the execution-backend name; "" means the default
	// backend.
	Backend string `json:"backend"`
	// Mode is the version-1 execution mode name ("sequential" or
	// "concurrent"); "" means concurrent.
	Mode string `json:"mode"`
	// Kind is the app kind this spec expects, "batch" or "stream"; ""
	// means whatever kind the named app registered. Canonical fills it
	// from the registry and rejects a mismatch, so the service can
	// dispatch a spec to the batch or the streaming path before running
	// anything.
	Kind string `json:"kind"`
	// Trace asks the service to run the job under the flight recorder
	// and retain its Chrome trace (GET /runs/{id}/trace). Omitted from
	// JSON when false so untraced Specs hash to the same content
	// address they always have; traced jobs bypass the result cache
	// entirely (see internal/serve).
	Trace bool `json:"trace,omitempty"`
}

// ModeNames returns the valid version-1 execution mode names, sorted.
func ModeNames() []string { return []string{"concurrent", "sequential"} }

// ResolveMode looks up a version-1 execution mode by flag-level name,
// returning a uniform "unknown mode (have: ...)" error for typos.
func ResolveMode(name string) (Mode, error) {
	switch name {
	case "sequential":
		return core.Sequential, nil
	case "concurrent":
		return core.Concurrent, nil
	}
	return 0, fmt.Errorf("unknown mode %q (have: %s)", name, strings.Join(ModeNames(), ", "))
}

// Canonical resolves sp against the registry and the defaults and
// returns the normalized Spec: every field filled in with its effective
// value, every name validated. Two Specs that would run the same
// experiment canonicalize to the same value, which is what makes the
// canonical form safe to hash as a content address (see
// internal/rescache). It rejects unknown apps, machines, backends and
// modes, non-positive procs/size, procs above MaxProcessProcs on the
// backends that start a process per rank or above MaxInProcessProcs on
// the in-process ones, with the same errors a direct RunApp would
// produce.
func (sp Spec) Canonical() (Spec, error) {
	a, err := ResolveApp(sp.App)
	if err != nil {
		return Spec{}, err
	}
	if sp.Size == 0 {
		sp.Size = a.DefaultSize
	}
	if sp.Size <= 0 {
		return Spec{}, fmt.Errorf("spec: problem size must be positive, got %d", sp.Size)
	}
	if sp.Procs == 0 {
		sp.Procs = defaultProcs
	}
	if sp.Procs <= 0 {
		return Spec{}, fmt.Errorf("spec: process count must be positive, got %d", sp.Procs)
	}
	if sp.Machine == "" {
		sp.Machine = machine.IBMSP().Name
	}
	if _, err := ResolveMachine(sp.Machine); err != nil {
		return Spec{}, err
	}
	if sp.Backend == "" {
		sp.Backend = backend.Default().Name()
	}
	if _, err := ResolveBackend(sp.Backend); err != nil {
		return Spec{}, err
	}
	switch {
	case (sp.Backend == "dist" || sp.Backend == "elastic") && sp.Procs > MaxProcessProcs:
		return Spec{}, fmt.Errorf("spec: backend %q starts one OS process per rank; procs %d exceeds its cap of %d",
			sp.Backend, sp.Procs, MaxProcessProcs)
	case (sp.Backend == "sim" || sp.Backend == "real") && sp.Procs > MaxInProcessProcs:
		return Spec{}, fmt.Errorf("spec: backend %q runs every rank in this process; procs %d exceeds its cap of %d",
			sp.Backend, sp.Procs, MaxInProcessProcs)
	}
	if sp.Mode == "" {
		sp.Mode = "concurrent"
	}
	if _, err := ResolveMode(sp.Mode); err != nil {
		return Spec{}, err
	}
	if sp.Kind == "" {
		sp.Kind = a.KindName()
	}
	switch sp.Kind {
	case KindBatch, KindStream:
	default:
		return Spec{}, fmt.Errorf("unknown kind %q (have: %s)", sp.Kind, strings.Join(KindNames(), ", "))
	}
	if sp.Kind != a.KindName() {
		return Spec{}, fmt.Errorf("app %q is a %s app, not %s", sp.App, a.KindName(), sp.Kind)
	}
	if sp.Trace && sp.Kind == KindStream {
		return Spec{}, fmt.Errorf("spec: trace is not supported for stream apps")
	}
	return sp, nil
}

// MaxProcessProcs caps procs on the backends that start one OS process
// per rank ("dist" and "elastic"), so a spec cannot ask a host for
// unbounded processes. It is at or above the largest process count any
// test, figure or CI smoke runs on them (figure 16 sweeps to 100).
const MaxProcessProcs = 128

// MaxInProcessProcs caps procs on the backends that run every rank in the
// calling process ("sim" and "real"). Their fabric makes n² inbox rings up
// front, 40 bytes of header each, so procs of 100,000 would ask for about
// 400 GB before any rank runs; at the cap the headers are 2.6 MB. It is at
// or above the largest process count any test, figure or CI smoke runs
// there (figures sweep to 100).
const MaxInProcessProcs = 256

// defaultProcs is NewSettings' process-count default, shared so Spec
// canonicalization and option-based runs agree on what "unspecified"
// means.
const defaultProcs = 8

// CanonicalJSON canonicalizes sp and renders it as deterministic JSON:
// fixed field order, no whitespace. Byte-identical output for equivalent
// Specs is the contract the content-addressed result cache hashes
// against.
func (sp Spec) CanonicalJSON() ([]byte, error) {
	c, err := sp.Canonical()
	if err != nil {
		return nil, err
	}
	return json.Marshal(c)
}

// Settings resolves the canonical spec's names into runnable Settings.
// It must be called on a canonical Spec (it re-canonicalizes to be
// safe) so name resolution cannot fail halfway.
func (sp Spec) Settings() (Settings, error) {
	c, err := sp.Canonical()
	if err != nil {
		return Settings{}, err
	}
	m, err := ResolveMachine(c.Machine)
	if err != nil {
		return Settings{}, err
	}
	b, err := ResolveBackend(c.Backend)
	if err != nil {
		return Settings{}, err
	}
	mode, err := ResolveMode(c.Mode)
	if err != nil {
		return Settings{}, err
	}
	return Settings{
		Procs:   c.Procs,
		Machine: m,
		Backend: b,
		Mode:    mode,
		Size:    c.Size,
	}, nil
}

// RunSpec canonicalizes sp and runs it through the registry, exactly as
// RunApp with the equivalent options would: same app dispatch, same
// validation, same summary and Report. It is the execution entry point
// for serialized run requests (the archetype service's job bodies).
func RunSpec(ctx context.Context, sp Spec) (string, Report, error) {
	c, err := sp.Canonical()
	if err != nil {
		return "", Report{}, err
	}
	s, err := c.Settings()
	if err != nil {
		return "", Report{}, err
	}
	a, err := ResolveApp(c.App)
	if err != nil {
		return "", Report{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return a.Run(ctx, s)
}
