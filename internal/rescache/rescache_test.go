package rescache_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/arch"
	_ "repro/arch/apps"
	"repro/internal/rescache"
)

// base is the fully-spelled-out spec the perturbation tests start from.
var base = arch.Spec{App: "mergesort", Size: 1 << 12, Procs: 4, Machine: "ibm-sp", Backend: "sim", Mode: "concurrent"}

// entryFor builds a well-formed Entry for sp (the report content is
// arbitrary; only the spec participates in addressing).
func entryFor(t *testing.T, sp arch.Spec) (string, *rescache.Entry) {
	t.Helper()
	c, err := sp.Canonical()
	if err != nil {
		t.Fatalf("Canonical: %v", err)
	}
	key, err := rescache.Key(c)
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return key, &rescache.Entry{
		Spec:    c,
		Summary: "test summary",
		Report:  arch.Report{Backend: c.Backend, Machine: c.Machine, Virtual: true, Procs: c.Procs, Makespan: 1.5, Msgs: 7, Bytes: 99},
		Created: time.Now().UTC(),
	}
}

// TestKeyIdenticalSpecs: equivalent specs — defaults omitted vs spelled
// out — derive the identical content address.
func TestKeyIdenticalSpecs(t *testing.T) {
	k1, err := rescache.Key(arch.Spec{App: "mergesort", Size: 1 << 12, Procs: 4})
	if err != nil {
		t.Fatalf("Key(short): %v", err)
	}
	k2, err := rescache.Key(base)
	if err != nil {
		t.Fatalf("Key(long): %v", err)
	}
	if k1 != k2 {
		t.Errorf("equivalent specs keyed differently: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key length = %d, want 64 hex chars", len(k1))
	}
}

// TestKeyPerturbation: changing any single spec field changes the key.
func TestKeyPerturbation(t *testing.T) {
	baseKey, err := rescache.Key(base)
	if err != nil {
		t.Fatalf("Key(base): %v", err)
	}
	perturb := map[string]arch.Spec{
		"app":     {App: "quicksort", Size: base.Size, Procs: base.Procs, Machine: base.Machine, Backend: base.Backend, Mode: base.Mode},
		"size":    {App: base.App, Size: base.Size * 2, Procs: base.Procs, Machine: base.Machine, Backend: base.Backend, Mode: base.Mode},
		"procs":   {App: base.App, Size: base.Size, Procs: base.Procs * 2, Machine: base.Machine, Backend: base.Backend, Mode: base.Mode},
		"machine": {App: base.App, Size: base.Size, Procs: base.Procs, Machine: "intel-delta", Backend: base.Backend, Mode: base.Mode},
		"backend": {App: base.App, Size: base.Size, Procs: base.Procs, Machine: base.Machine, Backend: "real", Mode: base.Mode},
		"mode":    {App: base.App, Size: base.Size, Procs: base.Procs, Machine: base.Machine, Backend: base.Backend, Mode: "sequential"},
	}
	seen := map[string]string{baseKey: "base"}
	for field, sp := range perturb {
		k, err := rescache.Key(sp)
		if err != nil {
			t.Fatalf("Key(perturb %s): %v", field, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collides with %s: key %s", field, prev, k)
		}
		seen[k] = field
	}
}

// TestRoundTrip: Put then Get returns the entry bit-for-bit on the
// fields that matter (spec, summary, report).
func TestRoundTrip(t *testing.T) {
	c, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key, e := entryFor(t, base)
	if _, ok := c.Get(key); ok {
		t.Fatal("Get on empty cache hit")
	}
	if err := c.Put(key, e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if got.Spec != e.Spec || got.Summary != e.Summary || got.Report != e.Report {
		t.Errorf("round trip mutated entry:\n got  %+v\n want %+v", got, e)
	}
}

// TestPutFreshDirectory: Put makes the fan-out directory of its first
// entry, and the whole cache directory if it was removed after Open.
func TestPutFreshDirectory(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := rescache.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key, e := entryFor(t, base)
	if err := c.Put(key, e); err != nil {
		t.Fatalf("Put into a fresh fan-out directory: %v", err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("Get after Put into a fresh fan-out directory missed")
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, e); err != nil {
		t.Fatalf("Put after the cache directory was removed: %v", err)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("Get after Put into a removed cache directory missed")
	}
}

// TestPutFailureLeavesNoTemp: a Put whose rename fails (its entry path is
// a non-empty directory) reports the error and leaves no temp file.
func TestPutFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	c, err := rescache.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key, e := entryFor(t, base)
	blocker := filepath.Join(dir, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, e); err == nil {
		t.Fatal("Put over a non-empty directory succeeded")
	}
	left, err := filepath.Glob(filepath.Join(dir, key[:2], "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("failed Put left temp files %v", left)
	}
}

// TestCorruptEntryIsMiss: corrupted and truncated entry files are
// discarded as misses (and removed), never a crash, and a fresh Put
// repairs the slot.
func TestCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := rescache.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	key, e := entryFor(t, base)
	if err := c.Put(key, e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, key[:2], key+".json")

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read entry file: %v", err)
	}
	corruptions := map[string][]byte{
		"garbage":        []byte("not json at all {{{"),
		"truncated":      blob[:len(blob)/2],
		"empty":          {},
		"wrong spec":     []byte(`{"spec":{"app":"fft","size":64,"procs":8,"machine":"ibm-sp","backend":"sim","mode":"concurrent"},"summary":"forged","report":{}}`),
		"valid but bare": []byte(`{}`),
	}
	for name, bad := range corruptions {
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatalf("%s: write corruption: %v", name, err)
		}
		if got, ok := c.Get(key); ok {
			t.Errorf("%s: Get returned %+v, want miss", name, got)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: invalid entry file not removed (err=%v)", name, err)
		}
		// The slot must be writable again after the discard.
		if err := c.Put(key, e); err != nil {
			t.Fatalf("%s: Put after discard: %v", name, err)
		}
		if _, ok := c.Get(key); !ok {
			t.Errorf("%s: Get after repair missed", name)
		}
	}
}

// TestPutRejectsMismatchedKey: an entry may only be stored under the
// address its spec derives — the invariant Get's validation relies on.
func TestPutRejectsMismatchedKey(t *testing.T) {
	c, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	_, e := entryFor(t, base)
	otherKey, _ := entryFor(t, arch.Spec{App: "fft"})
	if err := c.Put(otherKey, e); err == nil {
		t.Error("Put under a foreign key succeeded")
	}
	if err := c.Put("zz", e); err == nil {
		t.Error("Put under a malformed key succeeded")
	}
	if _, ok := c.Get("../../etc/passwd"); ok {
		t.Error("Get with a path-shaped key hit")
	}
}

// TestConcurrentAccess: concurrent readers and writers on overlapping
// keys are race-clean and every read observes either a miss or a fully
// valid entry (run under -race in CI).
func TestConcurrentAccess(t *testing.T) {
	c, err := rescache.Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	specs := []arch.Spec{
		base,
		{App: "mergesort", Size: 1 << 13, Procs: 4},
		{App: "fft", Procs: 4},
		{App: "quicksort", Size: 1 << 12},
	}
	keys := make([]string, len(specs))
	entries := make([]*rescache.Entry, len(specs))
	for i, sp := range specs {
		keys[i], entries[i] = entryFor(t, sp)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (w + i) % len(keys)
				if w%2 == 0 {
					if err := c.Put(keys[k], entries[k]); err != nil {
						t.Errorf("concurrent Put: %v", err)
						return
					}
				} else if e, ok := c.Get(keys[k]); ok {
					if e.Spec != entries[k].Spec || e.Report != entries[k].Report {
						t.Errorf("concurrent Get observed torn entry: %+v", e)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
