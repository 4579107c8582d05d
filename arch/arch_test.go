package arch_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/arch"
	_ "repro/arch/apps"
	"repro/internal/machine"
)

// everyApp lists the applications the registry must hold after importing
// repro/arch/apps.
var everyApp = []string{
	"airshed", "cfd", "closest", "fdtd", "fft", "hull",
	"mergesort", "poisson", "quicksort", "skyline", "swirl",
}

func TestRegistryComplete(t *testing.T) {
	apps := arch.Apps()
	byName := map[string]arch.App{}
	for _, a := range apps {
		byName[a.Name] = a
	}
	for _, name := range everyApp {
		a, ok := byName[name]
		if !ok {
			t.Errorf("app %q not registered", name)
			continue
		}
		if a.Desc == "" || a.DefaultSize <= 0 || a.Run == nil {
			t.Errorf("app %q registered incompletely: %+v", name, a)
		}
	}
	for i := 1; i < len(apps); i++ {
		if apps[i-1].Name >= apps[i].Name {
			t.Fatalf("Apps() not sorted: %q before %q", apps[i-1].Name, apps[i].Name)
		}
	}
}

// TestResolveBackendErrorDeterministic pins the exact "have: ..." list:
// sorted name order, so typo errors are stable across runs and map
// iteration orders (and prove dist is registered through the facade).
func TestResolveBackendErrorDeterministic(t *testing.T) {
	_, err := arch.ResolveBackend("quantum")
	if err == nil {
		t.Fatal("ResolveBackend(quantum) succeeded")
	}
	want := `unknown backend "quantum" (have: dist, elastic, real, sim)`
	if err.Error() != want {
		t.Errorf("error = %q, want %q", err.Error(), want)
	}
	names := arch.BackendNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("BackendNames() not sorted: %v", names)
		}
	}
	for _, name := range []string{"dist", "elastic", "real", "sim"} {
		r, err := arch.ResolveBackend(name)
		if err != nil || r.Name() != name {
			t.Errorf("ResolveBackend(%q) = %v, %v", name, r, err)
		}
	}
}

// TestRunAppOnDist runs a registry app end to end on the distributed
// backend resolved by name through the facade: worker processes
// self-spawn from this test binary (see TestMain).
func TestRunAppOnDist(t *testing.T) {
	dist, err := arch.ResolveBackend("dist")
	if err != nil {
		t.Fatal(err)
	}
	summary, rep, err := arch.RunApp(context.Background(), "mergesort",
		arch.WithProcs(2), arch.WithSize(1<<10), arch.WithBackend(dist))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "verified sorted") {
		t.Errorf("summary = %q, want verification note", summary)
	}
	if rep.Backend != "dist" || rep.Virtual || rep.Makespan <= 0 {
		t.Errorf("report = %+v, want wall-clock dist report", rep)
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := arch.ResolveApp("nope"); err == nil || !strings.Contains(err.Error(), "unknown app") || !strings.Contains(err.Error(), "have:") {
		t.Errorf("ResolveApp error = %v, want unknown-app with listing", err)
	}
	if _, err := arch.ResolveMachine("vax"); err == nil || !strings.Contains(err.Error(), "unknown machine") || !strings.Contains(err.Error(), "have:") {
		t.Errorf("ResolveMachine error = %v, want unknown-machine with listing", err)
	}
	if _, err := arch.ResolveBackend("quantum"); err == nil || !strings.Contains(err.Error(), "unknown backend") || !strings.Contains(err.Error(), "have:") {
		t.Errorf("ResolveBackend error = %v, want unknown-backend with listing", err)
	}
	if m, err := arch.ResolveMachine("ibm-sp"); err != nil || m.Name != "ibm-sp" {
		t.Errorf("ResolveMachine(ibm-sp) = %v, %v", m, err)
	}
	if r, err := arch.ResolveBackend("sim"); err != nil || r.Name() != "sim" {
		t.Errorf("ResolveBackend(sim) = %v, %v", r, err)
	}
}

func TestRunAppEndToEnd(t *testing.T) {
	summary, rep, err := arch.RunApp(context.Background(), "mergesort",
		arch.WithProcs(4), arch.WithSize(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "verified sorted") {
		t.Errorf("summary = %q, want verification note", summary)
	}
	if rep.Procs != 4 || rep.Backend != "sim" || !rep.Virtual || rep.Makespan <= 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestRunAppDefaultSize(t *testing.T) {
	// WithSize(0) means the app's registered default: the skyline app's
	// summary names its input size.
	summary, _, err := arch.RunApp(context.Background(), "skyline", arch.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(summary, "2000 buildings") {
		t.Errorf("summary = %q, want the 2000-building default", summary)
	}
}

func TestRunTypedProgram(t *testing.T) {
	// A facade-only SPMD program: every rank contributes rank+1, the
	// combine stage sums.
	prog := arch.SPMD(
		func(p *arch.Proc, in int) int { return in * (p.Rank() + 1) },
		func(parts []int) int {
			sum := 0
			for _, v := range parts {
				sum += v
			}
			return sum
		})
	out, rep, err := arch.Run(context.Background(), prog, 10, arch.WithProcs(4))
	if err != nil {
		t.Fatal(err)
	}
	if out != 10*(1+2+3+4) {
		t.Errorf("out = %d, want 100", out)
	}
	if rep.Procs != 4 {
		t.Errorf("report procs = %d", rep.Procs)
	}
}

func TestParForModes(t *testing.T) {
	prog := arch.ParFor(func(mode arch.Mode, n int) string {
		return mode.String()
	})
	for _, tc := range []struct {
		opt  arch.Option
		want string
	}{
		{arch.WithMode(arch.Sequential), "sequential"},
		{arch.WithMode(arch.Concurrent), "concurrent"},
	} {
		got, _, err := arch.Run(context.Background(), prog, 1, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("mode = %q, want %q", got, tc.want)
		}
	}
}

func TestRunValidation(t *testing.T) {
	prog := arch.SPMDRoot(func(p *arch.Proc, in int) int { return in })
	if _, _, err := arch.Run(context.Background(), prog, 1, arch.WithProcs(-2)); err == nil {
		t.Error("negative procs should return an error")
	}
	if _, _, err := arch.Run(context.Background(), prog, 1, arch.WithMachine(nil)); err == nil {
		t.Error("nil machine should return an error")
	}
	if _, _, err := arch.Run(context.Background(), prog, 1, arch.WithBackend(nil)); err == nil {
		t.Error("nil backend should return an error")
	}
	var zero arch.Program[int, int]
	if _, _, err := arch.Run(context.Background(), zero, 1); err == nil {
		t.Error("zero Program should return an error")
	}
}

func TestRunCancellation(t *testing.T) {
	// A program whose rank 0 blocks forever in Recv: only cancellation
	// can unwind it. Run must return ctx.Err() promptly without leaking
	// the process goroutines.
	prog := arch.SPMDRoot(func(p *arch.Proc, in int) int {
		if p.Rank() == 0 {
			p.Recv(1, 1) // rank 1 never sends
		}
		return in
	})
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := arch.Run(ctx, prog, 1, arch.WithProcs(2), arch.WithMachine(machine.IBMSP()))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("cancellation took %v, want prompt", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+1 {
		t.Errorf("goroutines leaked after cancelled Run: %d before, %d after", before, n)
	}
}

func TestReportString(t *testing.T) {
	rep := arch.Report{Backend: "sim", Machine: "ibm-sp", Virtual: true, Procs: 8, Makespan: 1.5, Msgs: 10, Bytes: 2e6}
	s := rep.String()
	for _, want := range []string{"8 ibm-sp processes", "sim backend", "virtual", "10 msgs", "2.00 MB"} {
		if !strings.Contains(s, want) {
			t.Errorf("Report.String() = %q, missing %q", s, want)
		}
	}
}
