package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func open(t *testing.T, version string) *Cache {
	t.Helper()
	c, err := Open(t.TempDir(), version)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", "v1"); err == nil {
		t.Error("Open accepted empty directory")
	}
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Error("Open accepted empty version")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := open(t, "v1")
	key := Key([]byte("hello"))
	if _, ok := c.Get(key); ok {
		t.Fatal("Get hit on empty cache")
	}
	want := []byte(`{"x":1}`)
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, %v; want %q, true", got, ok, want)
	}
	// Overwrite wins.
	want2 := []byte(`{"x":2}`)
	if err := c.Put(key, want2); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.Get(key); !bytes.Equal(got, want2) {
		t.Fatalf("Get after overwrite = %q, want %q", got, want2)
	}
	// No lock or temp debris left behind.
	var stray []string
	filepath.Walk(filepath.Dir(c.Path(key)), func(p string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() && p != c.Path(key) {
			stray = append(stray, p)
		}
		return nil
	})
	if len(stray) > 0 {
		t.Fatalf("stray files after Put: %v", stray)
	}
}

// TestVersionIsolation is the schema-bump invalidation mechanism: entries
// written under one version string are invisible under any other.
func TestVersionIsolation(t *testing.T) {
	dir := t.TempDir()
	v1, err := Open(dir, "e5")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, "e6")
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("point"))
	if err := v1.Put(key, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(key); ok {
		t.Fatal("entry written under e5 visible under e6")
	}
	if got, ok := v1.Get(key); !ok || string(got) != "old" {
		t.Fatal("entry lost under its own version")
	}
}

func TestKeyLengthPrefixed(t *testing.T) {
	// Same concatenation, different part boundaries: must not collide.
	a := Key([]byte("ab"), []byte("c"))
	b := Key([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("length prefixing failed: part boundaries do not affect the key")
	}
	// Deterministic.
	if a != Key([]byte("ab"), []byte("c")) {
		t.Fatal("Key not deterministic")
	}
	// Empty parts are significant.
	if Key([]byte("x")) == Key([]byte("x"), nil) {
		t.Fatal("trailing empty part ignored")
	}
}

// TestCanonicalJSONFieldOrder verifies the hash-stability property the
// result cache depends on: two structs with the same logical fields in
// different declaration order canonicalize to identical bytes.
func TestCanonicalJSONFieldOrder(t *testing.T) {
	type fwd struct {
		Alpha int    `json:"alpha"`
		Beta  string `json:"beta"`
		Gamma bool   `json:"gamma"`
	}
	type rev struct {
		Gamma bool   `json:"gamma"`
		Beta  string `json:"beta"`
		Alpha int    `json:"alpha"`
	}
	a, err := CanonicalJSON(fwd{Alpha: 7, Beta: "b", Gamma: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := CanonicalJSON(rev{Gamma: true, Beta: "b", Alpha: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("field order changed canonical form:\n%s\n%s", a, b)
	}
	if Key(a) != Key(b) {
		t.Fatal("field order changed the cache key")
	}
	// Different values must still differ.
	c, err := CanonicalJSON(fwd{Alpha: 8, Beta: "b", Gamma: true})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("distinct values canonicalized identically")
	}
}

func TestCanonicalJSONNested(t *testing.T) {
	type inner struct {
		Z int `json:"z"`
		A int `json:"a"`
	}
	type outer struct {
		In  inner          `json:"in"`
		Map map[string]int `json:"map"`
	}
	got, err := CanonicalJSON(outer{In: inner{Z: 1, A: 2}, Map: map[string]int{"b": 2, "a": 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"in":{"a":2,"z":1},"map":{"a":1,"b":2}}`
	if string(got) != want {
		t.Fatalf("CanonicalJSON = %s, want %s", got, want)
	}
}

// TestConcurrentPut hammers one key from many goroutines under -race: no
// Put may fail, and the surviving entry must be one of the writers'
// payloads, never torn.
func TestConcurrentPut(t *testing.T) {
	c := open(t, "v1")
	key := Key([]byte("contested"))
	const writers = 16
	payload := func(i int) []byte {
		return bytes.Repeat([]byte{byte('a' + i)}, 4096)
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Put(key, payload(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("no entry after concurrent writers")
	}
	if len(got) != 4096 {
		t.Fatalf("torn entry: %d bytes", len(got))
	}
	for _, b := range got[1:] {
		if b != got[0] {
			t.Fatal("torn entry: mixed writer payloads")
		}
	}
}

// TestStaleLockBroken verifies a lock abandoned long ago by a crashed
// writer does not wedge the key: Put ignores lock files, whatever their
// age.
func TestStaleLockBroken(t *testing.T) {
	c := open(t, "v1")
	key := Key([]byte("wedged"))
	path := c.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	lock := path + ".lock"
	if err := os.WriteFile(lock, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "data" {
		t.Fatal("Put behind stale lock did not land")
	}
	// The lock stays where it was; the next writer must not be wedged by it.
	if err := c.Put(key, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "again" {
		t.Fatal("second Put behind stale lock did not land")
	}
}

// TestLeftoverLockDoesNotBlockPut: a fresh <entry>.lock beside the entry
// must not stop Put. Put takes no lock, so a file that a killed process
// left behind cannot make its key uncacheable.
func TestLeftoverLockDoesNotBlockPut(t *testing.T) {
	c := open(t, "v1")
	key := Key([]byte("leftover"))
	path := c.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".lock", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(key, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if got, ok := c.Get(key); !ok || string(got) != "data" {
		t.Fatalf("Get after Put beside a lock file = %q, %v; want the entry", got, ok)
	}
}

func TestShortKeyPath(t *testing.T) {
	c := open(t, "v1")
	// Degenerate short keys must still round-trip (Path has a special case).
	for _, key := range []string{"a", ""} {
		if err := c.Put(key, []byte("v")); err != nil {
			t.Fatalf("Put(%q): %v", key, err)
		}
		if got, ok := c.Get(key); !ok || string(got) != "v" {
			t.Fatalf("Get(%q) = %q, %v", key, got, ok)
		}
	}
}

func TestManyKeysFanOut(t *testing.T) {
	c := open(t, "v1")
	for i := 0; i < 64; i++ {
		key := Key([]byte(fmt.Sprintf("k%d", i)))
		if err := c.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		key := Key([]byte(fmt.Sprintf("k%d", i)))
		got, ok := c.Get(key)
		if !ok || len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("Get(k%d) = %v, %v", i, got, ok)
		}
	}
}
