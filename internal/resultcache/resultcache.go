// Package resultcache is a persistent, content-addressed store for
// simulation results. Entries are keyed by a canonical hash of everything
// that determines a simulation's outcome (configuration, workload, scale,
// engine schema version) and written atomically, so concurrent sweeps can
// share one cache directory: a warm sweep re-reads its points instead of
// re-simulating them.
//
// The store is deliberately forgiving on the read side — a missing,
// truncated, corrupted or stale entry is a miss, never an error — and
// conservative on the write side: entries are staged in a temp file and
// renamed into place. Since all writers of one key derive the entry from
// the same deterministic simulation, they write identical bytes, and
// whichever rename lands last is as good as any other.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Cache is one version-qualified cache directory. Entries written under
// one version string are invisible under any other, which is how schema-
// version bumps invalidate stale results without any migration logic.
type Cache struct {
	root string
}

// Open returns a cache rooted at dir/version, creating it if needed.
func Open(dir, version string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if version == "" {
		return nil, fmt.Errorf("resultcache: empty schema version")
	}
	root := filepath.Join(dir, version)
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{root: root}, nil
}

// Path returns the file an entry with the given key lives at. Entries are
// fanned out over key-prefix subdirectories to keep directories small.
func (c *Cache) Path(key string) string {
	if len(key) < 2 {
		return filepath.Join(c.root, key+".json")
	}
	return filepath.Join(c.root, key[:2], key+".json")
}

// Get returns the stored bytes for key, or ok=false on any kind of
// absence — including unreadable files. Corruption detection is the
// caller's job (the stored envelope embeds the key and schema).
func (c *Cache) Get(key string) (data []byte, ok bool) {
	data, err := os.ReadFile(c.Path(key))
	if err != nil {
		return nil, false
	}
	return data, true
}

// Put stores data under key: staged in a temp file, fsync-free, renamed
// into place (atomic on POSIX). Concurrent writers of one key need no
// coordination: each renames its own complete temp file, so a reader
// sees one writer's bytes whole, never a torn mix.
func (c *Cache) Put(key string, data []byte) error {
	path := c.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	return nil
}

// Key hashes the given byte parts into a hex cache key. Parts are
// length-prefixed, so no two distinct part sequences collide by
// concatenation.
func Key(parts ...[]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// CanonicalJSON marshals v into key-sorted JSON with no insignificant
// whitespace: the same logical value always hashes identically, no matter
// the declaration order of struct fields (Go maps marshal with sorted
// keys, so a marshal → generic-unmarshal → re-marshal round trip
// canonicalizes field order). Numbers survive the round trip exactly for
// magnitudes below 2^53, far above any configuration field.
func CanonicalJSON(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	var generic any
	if err := json.Unmarshal(raw, &generic); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	out, err := json.Marshal(generic)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return out, nil
}
