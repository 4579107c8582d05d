package arch_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/arch"
	_ "repro/arch/apps"
)

// TestSpecCanonicalFillsDefaults: a Spec naming only the app
// canonicalizes to the fully-spelled-out defaults, and the two forms
// produce byte-identical canonical JSON.
func TestSpecCanonicalFillsDefaults(t *testing.T) {
	c, err := arch.Spec{App: "mergesort"}.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	want := arch.Spec{App: "mergesort", Size: 1 << 19, Procs: 8, Machine: "ibm-sp", Backend: "sim", Mode: "concurrent", Kind: arch.KindBatch}
	if c != want {
		t.Fatalf("Canonical = %+v, want %+v", c, want)
	}
	short, err := arch.Spec{App: "mergesort"}.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON(short): %v", err)
	}
	long, err := want.CanonicalJSON()
	if err != nil {
		t.Fatalf("CanonicalJSON(long): %v", err)
	}
	if !bytes.Equal(short, long) {
		t.Fatalf("canonical JSON differs:\n short: %s\n long:  %s", short, long)
	}
}

// TestSpecCanonicalIdempotent: canonicalizing a canonical Spec is the
// identity, so hashing is stable no matter how many times a spec has
// been normalized on its way through the service.
func TestSpecCanonicalIdempotent(t *testing.T) {
	c, err := arch.Spec{App: "fft", Procs: 4}.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	c2, err := c.Canonical()
	if err != nil {
		t.Fatalf("Canonical(canonical): %v", err)
	}
	if c != c2 {
		t.Fatalf("Canonical not idempotent: %+v != %+v", c, c2)
	}
}

// TestSpecCanonicalRejects: every invalid field fails canonicalization
// with the facade's uniform resolver errors.
func TestSpecCanonicalRejects(t *testing.T) {
	cases := []struct {
		name string
		sp   arch.Spec
		want string
	}{
		{"unknown app", arch.Spec{App: "nope"}, "unknown app"},
		{"empty app", arch.Spec{}, "unknown app"},
		{"unknown machine", arch.Spec{App: "mergesort", Machine: "vax"}, "unknown machine"},
		{"unknown backend", arch.Spec{App: "mergesort", Backend: "quantum"}, "unknown backend"},
		{"unknown mode", arch.Spec{App: "mergesort", Mode: "turbo"}, "unknown mode"},
		{"negative procs", arch.Spec{App: "mergesort", Procs: -1}, "process count"},
		{"negative size", arch.Spec{App: "mergesort", Size: -5}, "problem size"},
		{"unknown kind", arch.Spec{App: "mergesort", Kind: "firehose"}, "unknown kind"},
		{"kind mismatch", arch.Spec{App: "mergesort", Kind: "stream"}, "is a batch app"},
		{"procs over the process cap", arch.Spec{App: "poisson", Size: 1 << 20, Procs: 1 << 20, Backend: "dist"}, "cap of 128"},
		{"procs over the process cap, elastic", arch.Spec{App: "mergesort", Procs: arch.MaxProcessProcs + 1, Backend: "elastic"}, "cap of 128"},
		{"procs over the in-process cap, sim", arch.Spec{App: "mergesort", Procs: 100000, Backend: "sim"}, "cap of 256"},
		{"procs over the in-process cap, real", arch.Spec{App: "mergesort", Procs: arch.MaxInProcessProcs + 1, Backend: "real"}, "cap of 256"},
	}
	for _, tc := range cases {
		_, err := tc.sp.Canonical()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Canonical() err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestSpecProcessCap: each process cap binds only its own backends, and
// a spec at the cap is accepted.
func TestSpecProcessCap(t *testing.T) {
	for _, sp := range []arch.Spec{
		{App: "mergesort", Procs: arch.MaxProcessProcs, Backend: "dist"},
		{App: "mergesort", Procs: arch.MaxProcessProcs + 1, Backend: "real"},
		{App: "mergesort", Procs: arch.MaxInProcessProcs, Backend: "real"},
		{App: "mergesort", Procs: arch.MaxInProcessProcs, Backend: "sim"},
	} {
		if _, err := sp.Canonical(); err != nil {
			t.Errorf("%+v: Canonical() = %v, want accepted", sp, err)
		}
	}
}

// TestResolveMode pins the mode resolver and its sorted error listing to
// the facade's "unknown X (have: ...)" convention.
func TestResolveMode(t *testing.T) {
	if m, err := arch.ResolveMode("sequential"); err != nil || m != arch.Sequential {
		t.Errorf("ResolveMode(sequential) = %v, %v", m, err)
	}
	if m, err := arch.ResolveMode("concurrent"); err != nil || m != arch.Concurrent {
		t.Errorf("ResolveMode(concurrent) = %v, %v", m, err)
	}
	_, err := arch.ResolveMode("turbo")
	if err == nil {
		t.Fatal("ResolveMode(turbo) succeeded")
	}
	if got, want := err.Error(), `unknown mode "turbo" (have: concurrent, sequential)`; got != want {
		t.Errorf("error = %q, want %q", got, want)
	}
}

// TestRunSpecMatchesRunApp: RunSpec is RunApp over a serialized request
// — identical summary and identical Report, meters included.
func TestRunSpecMatchesRunApp(t *testing.T) {
	sp := arch.Spec{App: "mergesort", Size: 1 << 12, Procs: 4}
	sum1, rep1, err := arch.RunSpec(context.Background(), sp)
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	sum2, rep2, err := arch.RunApp(context.Background(), "mergesort",
		arch.WithSize(1<<12), arch.WithProcs(4))
	if err != nil {
		t.Fatalf("RunApp: %v", err)
	}
	if sum1 != sum2 {
		t.Errorf("summary differs: %q vs %q", sum1, sum2)
	}
	if rep1 != rep2 {
		t.Errorf("report differs: %+v vs %+v", rep1, rep2)
	}
}
