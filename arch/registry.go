package arch

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// App is one registered archetype application: the unit the CLIs and
// figure drivers dispatch on. Each app package registers itself from an
// init function; importing repro/arch/apps for side effects populates the
// registry with every application in the repository.
type App struct {
	// Name is the registry key ("mergesort", "poisson", ...).
	Name string
	// Desc is the one-line description -list prints, conventionally with
	// the paper section it reproduces.
	Desc string
	// DefaultSize is the problem size used when the caller doesn't choose
	// one (WithSize(0)). Its unit is app-specific: element count, grid
	// edge, and so on.
	DefaultSize int
	// Kind classifies the app: KindBatch (the default, "" included) or
	// KindStream for long-lived streaming apps.
	Kind string
	// Run generates the app's input at the configured size, executes it,
	// verifies the result, and returns a one-line human summary of what
	// was computed and verified. Streaming apps provide it too (it is
	// RunStream without an observer) so batch drivers can run every app.
	Run func(ctx context.Context, s Settings) (string, Report, error)
	// RunStream is the streaming entry point, required exactly when Kind
	// is KindStream: the same contract as Run plus progress windows
	// delivered to obs while elements flow (nil obs is allowed).
	RunStream func(ctx context.Context, s Settings, obs StreamObserver) (string, Report, error)
}

// KindName returns the app's effective kind: Kind with the empty string
// normalized to KindBatch.
func (a App) KindName() string {
	if a.Kind == "" {
		return KindBatch
	}
	return a.Kind
}

var (
	appsMu sync.RWMutex
	apps   = map[string]App{}
)

// Register adds an application to the registry. It panics on an empty
// name, a nil Run, or a duplicate: registration happens in init
// functions, where these are programming errors, not runtime conditions.
func Register(a App) {
	if a.Name == "" {
		panic("arch: Register with empty app name")
	}
	if a.Run == nil {
		panic("arch: Register " + a.Name + " with nil Run")
	}
	switch a.Kind {
	case "", KindBatch:
		if a.RunStream != nil {
			panic("arch: Register " + a.Name + ": batch app with RunStream")
		}
	case KindStream:
		if a.RunStream == nil {
			panic("arch: Register " + a.Name + ": stream app with nil RunStream")
		}
	default:
		panic("arch: Register " + a.Name + ": unknown kind " + a.Kind)
	}
	appsMu.Lock()
	defer appsMu.Unlock()
	if _, dup := apps[a.Name]; dup {
		panic("arch: duplicate app " + a.Name)
	}
	apps[a.Name] = a
}

// Apps returns every registered application sorted by name.
func Apps() []App {
	appsMu.RLock()
	defer appsMu.RUnlock()
	out := make([]App, 0, len(apps))
	for _, a := range apps {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResolveApp looks an application up by name, returning a uniform
// "unknown app (have: ...)" error for typos.
func ResolveApp(name string) (App, error) {
	appsMu.RLock()
	a, ok := apps[name]
	appsMu.RUnlock()
	if !ok {
		regs := Apps()
		names := make([]string, len(regs))
		for i, reg := range regs {
			names[i] = reg.Name
		}
		return App{}, fmt.Errorf("unknown app %q (have: %s)", name, strings.Join(names, ", "))
	}
	return a, nil
}

// RunApp resolves and runs a registered application: it fills the app's
// default problem size, validates the settings, and invokes the app's Run
// under ctx. It returns the app's one-line summary and the run's Report.
func RunApp(ctx context.Context, name string, opts ...Option) (string, Report, error) {
	a, err := ResolveApp(name)
	if err != nil {
		return "", Report{}, err
	}
	s := NewSettings(opts...)
	if s.Size <= 0 {
		s.Size = a.DefaultSize
	}
	if err := s.Validate(); err != nil {
		return "", Report{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return a.Run(ctx, s)
}
