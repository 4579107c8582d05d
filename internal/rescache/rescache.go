// Package rescache is the content-addressed persistent result cache of
// the archetype service: finished run results keyed by what was
// computed, not when or by whom.
//
// The key is the SHA-256 of the run's canonical spec JSON
// (arch.Spec.CanonicalJSON): every field filled in with its effective
// value, so a request that spells out the defaults and one that omits
// them address the same entry, and perturbing any field — app, size,
// procs, machine, backend, mode — addresses a different one. Because
// the address is derived purely from content, the cache needs no
// invalidation protocol and is safe to share between processes and
// across restarts: an entry is valid exactly as long as its key still
// derives from its spec.
//
// Entries are single JSON files under the cache directory, fanned out
// by the key's first byte (dir/ab/abcdef....json) so a long-lived
// service does not accumulate one giant flat directory. Writes go
// through a temp file in the same directory followed by an atomic
// rename, so readers — concurrent goroutines or concurrent processes —
// never observe a torn entry. Reads re-verify the address: an entry
// whose embedded spec no longer hashes to its key (corruption,
// truncation, hand-editing, a format change) is discarded and reported
// as a miss, never returned and never fatal; the caller just recomputes.
//
// Only simulator results are worth caching unconditionally — they are
// deterministic in virtual time. Wall-clock backends (real, dist)
// produce identical outputs and meters but host-dependent makespans;
// the service caches those too (the meters and verification summary are
// the science), which callers should keep in mind when reading Makespan
// from a warm entry.
package rescache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/arch"
)

// Key derives the content address of a run spec: the lowercase-hex
// SHA-256 of its canonical JSON. Specs that canonicalize identically
// key identically; any effective difference changes the key.
func Key(sp arch.Spec) (string, error) {
	blob, err := sp.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// Entry is one cached run result: the canonical spec it answers
// (re-hashed on every read to validate the file), the app's
// verification summary, and the full cost Report.
type Entry struct {
	// Spec is the canonical spec this result answers.
	Spec arch.Spec `json:"spec"`
	// Summary is the app's one-line verification summary.
	Summary string `json:"summary"`
	// Report is the run's full cost report, meters included.
	Report arch.Report `json:"report"`
	// Created is when the entry was written (informational only; the
	// content address, not the age, decides validity).
	Created time.Time `json:"created"`
}

// Cache is a content-addressed result store rooted at one directory.
// All methods are safe for concurrent use by multiple goroutines and
// multiple processes sharing the directory.
type Cache struct {
	dir string
}

// Open returns a Cache rooted at dir, creating the directory if needed.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("rescache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rescache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its entry file: two-level fanout on the key's
// first byte.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key[:2], key+".json")
}

// validKey reports whether key has the shape Key produces: 64 lowercase
// hex characters. Anything else is rejected before it can touch the
// filesystem (and before key[:2] could slice out of range).
func validKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for _, r := range key {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// Get looks key up. A hit returns the validated entry; everything else
// — no file, unreadable file, malformed JSON, or an entry whose spec no
// longer hashes to key — is a miss. Invalid files are removed so they
// are not re-parsed on every request; removal failures are ignored (the
// next Put overwrites them anyway).
func (c *Cache) Get(key string) (*Entry, bool) {
	if !validKey(key) {
		return nil, false
	}
	p := c.path(key)
	blob, err := os.ReadFile(p)
	if err != nil {
		return nil, false
	}
	var e Entry
	if err := json.Unmarshal(blob, &e); err != nil {
		os.Remove(p)
		return nil, false
	}
	// Re-derive the address from the embedded spec: a mismatch means the
	// file is corrupt, truncated-but-parseable, or stale relative to the
	// canonicalization rules — all misses.
	got, err := Key(e.Spec)
	if err != nil || got != key {
		os.Remove(p)
		return nil, false
	}
	return &e, true
}

// Put stores e under key atomically: marshal, write a temp file in the
// entry's directory, rename over the final path. The fan-out directory is
// made only when the temp file cannot be created for want of it, and the
// temp file is removed only when a step fails. Concurrent Puts of the
// same key are safe — both write complete entries and the renames
// serialize; since the address is the content, it does not matter whose
// entry wins.
func (c *Cache) Put(key string, e *Entry) error {
	if !validKey(key) {
		return fmt.Errorf("rescache: invalid key %q", key)
	}
	if want, err := Key(e.Spec); err != nil {
		return fmt.Errorf("rescache: entry spec does not canonicalize: %w", err)
	} else if want != key {
		return fmt.Errorf("rescache: entry spec hashes to %s, not %s", want, key)
	}
	blob, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	p := c.path(key)
	dir := filepath.Dir(p)
	tmp, err := os.CreateTemp(dir, key+".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		// The first entry of its fan-out directory makes the directory.
		if err = os.MkdirAll(dir, 0o755); err == nil {
			tmp, err = os.CreateTemp(dir, key+".tmp-*")
		}
	}
	if err != nil {
		return fmt.Errorf("rescache: %w", err)
	}
	_, err = tmp.Write(blob)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), p)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("rescache: %w", err)
	}
	return nil
}
