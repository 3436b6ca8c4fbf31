package lsnuma

// Correctness tests for the persistent result cache (PR 5): cached
// replays must be byte-identical to fresh simulations, every corruption
// mode must degrade to a miss (never an error, never a wrong Result), a
// schema-version bump must invalidate everything, and concurrent sweeps
// sharing one cache directory must stay race-free.

import (
	"bytes"
	"context"
	"os"
	"sync"
	"testing"

	"lsnuma/internal/resultcache"
)

// cachePoints builds the workload × protocol point matrix used by the
// cache tests.
func cachePoints() []Point {
	var pts []Point
	for _, w := range Workloads() {
		for _, p := range Protocols() {
			cfg := DefaultConfig()
			if w == "oltp" {
				cfg = OLTPConfig()
			}
			cfg.Protocol = p
			pts = append(pts, Point{Label: w + "/" + string(p), Config: cfg, Workload: w, Scale: ScaleTest})
		}
	}
	return pts
}

func openCache(t *testing.T, dir string) *ResultCache {
	t.Helper()
	rc, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestCachedVsFreshMatrix is the headline guarantee: a cold RunAll
// populates the cache (all misses), a warm RunAll answers every point
// from it (all hits, Cached set), and every cached Result is
// byte-identical to the fresh one.
func TestCachedVsFreshMatrix(t *testing.T) {
	dir := t.TempDir()
	pts := cachePoints()

	cold := openCache(t, dir)
	fresh, err := RunAll(context.Background(), pts, RunOptions{Cache: cold})
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.Hits != 0 || s.Misses != uint64(len(pts)) || s.Errors != 0 {
		t.Fatalf("cold stats = %+v, want %d misses and nothing else", s, len(pts))
	}
	for _, r := range fresh {
		if r.Cached {
			t.Fatalf("%s: cold run reported Cached", r.Label)
		}
	}

	warm := openCache(t, dir)
	cached, err := RunAll(context.Background(), pts, RunOptions{Cache: warm})
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Hits != uint64(len(pts)) || s.Misses != 0 || s.Errors != 0 {
		t.Fatalf("warm stats = %+v, want %d hits and nothing else", s, len(pts))
	}
	for i := range pts {
		if !cached[i].Cached {
			t.Fatalf("%s: warm run did not hit the cache", cached[i].Label)
		}
		fj, cj := exportJSON(t, fresh[i].Result), exportJSON(t, cached[i].Result)
		if !bytes.Equal(fj, cj) {
			t.Errorf("%s: cached Result differs from fresh:\nfresh:  %s\ncached: %s", pts[i].Label, fj, cj)
		}
	}
}

// TestPointKeyStability pins the content addressing: identical points key
// identically, and every input dimension — config field, workload, scale
// — perturbs the key.
func TestPointKeyStability(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Protocol = LS
	k1, err := pointKey(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := pointKey(cfg, "mp3d", ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatal("PointKey not deterministic")
	}
	perturb := map[string]func() (string, error){
		"protocol": func() (string, error) {
			c := cfg
			c.Protocol = AD
			return pointKey(c, "mp3d", ScaleTest)
		},
		"block-size": func() (string, error) {
			c := cfg
			c.BlockSize *= 2
			return pointKey(c, "mp3d", ScaleTest)
		},
		"workload": func() (string, error) { return pointKey(cfg, "cholesky", ScaleTest) },
		"scale":    func() (string, error) { return pointKey(cfg, "mp3d", ScaleSmall) },
		// The scheduler must land in the content hash even though both
		// schedulers produce identical Results: a cache entry records
		// the exact configuration asked for, and collapsing these fields
		// silently would make a future semantics-affecting knob unsafe.
		"scheduler": func() (string, error) {
			c := cfg
			c.Scheduler = "serial"
			return pointKey(c, "mp3d", ScaleTest)
		},
		"variant": func() (string, error) {
			c := cfg
			c.Variant.TagHysteresis = 2
			return pointKey(c, "mp3d", ScaleTest)
		},
	}
	for name, f := range perturb {
		k, err := f()
		if err != nil {
			t.Fatal(err)
		}
		if k == k1 {
			t.Errorf("perturbing %s did not change the key", name)
		}
	}
	key := func(set func(*Config)) string {
		c := cfg
		set(&c)
		k, err := pointKey(c, "mp3d", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	baseline := func(c *Config) { c.Protocol = Baseline }
	// Spellings of one configuration key identically: the CLIs say
	// "off" where a daemon request leaves the field empty. Baseline and
	// EX read no Variant option, so a valid one does not split their key.
	same := []struct {
		name string
		a, b func(*Config)
	}{
		{"check", func(c *Config) { c.Check = "" }, func(c *Config) { c.Check = CheckOff }},
		{"scheduler", func(c *Config) { c.Scheduler = "" }, func(c *Config) { c.Scheduler = "runahead" }},
		{"dirformat", func(c *Config) { c.DirFormat = "" }, func(c *Config) { c.DirFormat = "full" }},
		{"retry", func(c *Config) { c.Retry = "max:16" }, func(c *Config) { c.Retry = "max:16,base:100,cap:10000,jitter:1" }},
		{"baseline-variant", baseline, func(c *Config) { c.Protocol, c.Variant = Baseline, ablationVariant }},
		{"ex-variant", func(c *Config) { c.Protocol = EX }, func(c *Config) { c.Protocol, c.Variant = EX, ablationVariant }},
	}
	for _, tc := range same {
		if key(tc.a) != key(tc.b) {
			t.Errorf("%s: equal configurations key differently", tc.name)
		}
	}
	// An invalid Variant keeps its spelling, so it never shares a key
	// with a point that runs.
	if key(baseline) == key(func(c *Config) { c.Protocol, c.Variant.TagHysteresis = Baseline, 300 }) {
		t.Error("a Baseline with tag hysteresis 300 keys as the plain Baseline")
	}
}

// ablationVariant sets every §5.5 ablation option.
var ablationVariant = Variant{DefaultTagged: true, KeepOnWriteMiss: true, TagHysteresis: 2, DetagHysteresis: 3}

// TestBaselineIgnoresVariant is the contract behind keying Baseline and
// EX without their Variant: neither protocol reads it, so their Results
// are byte-identical with and without every ablation option set.
func TestBaselineIgnoresVariant(t *testing.T) {
	for _, p := range []Protocol{Baseline, EX} {
		cfg := OLTPConfig()
		cfg.Protocol = p
		plain, err := Run(cfg, "oltp", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Variant = ablationVariant
		varied, err := Run(cfg, "oltp", ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if pj, vj := exportJSON(t, plain), exportJSON(t, varied); !bytes.Equal(pj, vj) {
			t.Errorf("%s reads its Variant:\nzero:    %s\nvariant: %s", p, pj, vj)
		}
	}
}

// TestCacheSharesBaselineAcrossVariants: a Baseline point with a Variant
// is answered from the plain Baseline's cache entry.
func TestCacheSharesBaselineAcrossVariants(t *testing.T) {
	rc := openCache(t, t.TempDir())
	pt := Point{Label: "mp3d/Baseline", Config: DefaultConfig(), Workload: "mp3d", Scale: ScaleTest}
	pt.Config.Protocol = Baseline
	varied := pt
	varied.Config.Variant = ablationVariant
	for _, p := range []Point{pt, varied} {
		if _, err := RunAll(context.Background(), []Point{p}, RunOptions{Cache: rc}); err != nil {
			t.Fatal(err)
		}
	}
	if s := rc.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1", s)
	}
}

// TestCacheSchemaInvalidation simulates an engine schema bump: entries
// written under the current version must be invisible to a cache opened
// under a newer version, forcing a re-simulation.
func TestCacheSchemaInvalidation(t *testing.T) {
	dir := t.TempDir()
	pts := cachePoints()[:1]

	cur := openCache(t, dir)
	if _, err := RunAll(context.Background(), pts, RunOptions{Cache: cur}); err != nil {
		t.Fatal(err)
	}

	// A future engine generation opens the same directory under a bumped
	// version string: the old entry must not be found.
	bumped, err := resultcache.Open(dir, "e999")
	if err != nil {
		t.Fatal(err)
	}
	next := &ResultCache{c: bumped}
	computed := 0
	stub := func() (*Result, *ReproBundle, error) { computed++; return &Result{}, nil, nil }
	if _, _, cached, _, err := next.do(context.Background(), pts[0], stub); err != nil || cached || computed != 1 {
		t.Fatalf("bumped cache: cached=%v computed=%d err=%v; want a fresh computation", cached, computed, err)
	}
	if s := next.Stats(); s.Misses != 1 {
		t.Fatalf("stats after stale lookup = %+v, want 1 miss", s)
	}

	// The current version still hits.
	if _, _, cached, _, err := cur.do(context.Background(), pts[0], stub); err != nil || !cached || computed != 1 {
		t.Fatalf("current cache: cached=%v computed=%d err=%v; want the stored entry", cached, computed, err)
	}
}

// TestCacheCorruptionIsMiss damages stored entries in every way a real
// filesystem can — truncation, garbage, valid JSON under the wrong key —
// and requires each to read as a miss that re-simulates cleanly, never an
// error and never a wrong Result.
func TestCacheCorruptionIsMiss(t *testing.T) {
	pt := cachePoints()[0]
	key, err := pointKey(pt.Config, pt.Workload, pt.Scale)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func(path string) error{
		"truncated": func(path string) error { return os.Truncate(path, 10) },
		"empty":     func(path string) error { return os.Truncate(path, 0) },
		"garbage":   func(path string) error { return os.WriteFile(path, []byte("not json {"), 0o644) },
		"wrong-key": func(path string) error {
			return os.WriteFile(path, []byte(`{"schema":"lsnuma-result-v1","key":"deadbeef","result":{}}`), 0o644)
		},
		"wrong-schema": func(path string) error {
			return os.WriteFile(path, []byte(`{"schema":"other","key":"`+key+`","result":{}}`), 0o644)
		},
		"null-result": func(path string) error {
			return os.WriteFile(path, []byte(`{"schema":"lsnuma-result-v1","key":"`+key+`","result":null}`), 0o644)
		},
	}
	for name, damage := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			rc := openCache(t, dir)
			out, err := RunAll(context.Background(), []Point{pt}, RunOptions{Cache: rc})
			if err != nil {
				t.Fatal(err)
			}
			want := exportJSON(t, out[0].Result)
			if err := damage(rc.c.Path(key)); err != nil {
				t.Fatal(err)
			}
			rc2 := openCache(t, dir)
			out2, err := RunAll(context.Background(), []Point{pt}, RunOptions{Cache: rc2})
			if err != nil {
				t.Fatalf("corrupted cache entry surfaced as an error: %v", err)
			}
			s := rc2.Stats()
			if s.Hits != 0 || s.Misses != 1 {
				t.Fatalf("stats = %+v, want the damaged entry to read as a miss", s)
			}
			if out2[0].Cached {
				t.Fatal("damaged entry served as a hit")
			}
			if got := exportJSON(t, out2[0].Result); !bytes.Equal(got, want) {
				t.Fatalf("re-simulated Result differs:\nwant: %s\ngot:  %s", want, got)
			}
		})
	}
}

// TestCacheSkipsFaultInjection: fault-injected points must never be
// served from or stored into the cache.
func TestCacheSkipsFaultInjection(t *testing.T) {
	rc := openCache(t, t.TempDir())
	pt := cachePoints()[0]
	pt.Config.Faults = "drop-inval:1"
	computed := 0
	stub := func() (*Result, *ReproBundle, error) { computed++; return &Result{}, nil, nil }
	for i := 0; i < 2; i++ {
		if _, _, cached, _, err := rc.do(context.Background(), pt, stub); err != nil || cached {
			t.Fatalf("run %d: cached=%v err=%v; fault-injected point answered from cache", i, cached, err)
		}
	}
	if computed != 2 {
		t.Fatalf("computed %d times, want 2: the first run's Result was stored", computed)
	}
	if s := rc.Stats(); s.Skips != 2 || s.Hits+s.Misses != 0 {
		t.Fatalf("stats = %+v, want 2 skips and no lookups", s)
	}
	pt2 := pt
	pt2.Config.Faults = ""
	if _, _, cached, _, _ := rc.do(context.Background(), pt2, stub); cached {
		t.Fatal("store of a fault-injected point landed in the cache")
	}
}

// TestCacheConcurrentSweeps races two full RunAll sweeps against one
// shared cache directory under -race: no errors, every Result
// byte-identical to a reference fresh run, and the second wave all hits.
func TestCacheConcurrentSweeps(t *testing.T) {
	dir := t.TempDir()
	pts := cachePoints()

	ref, err := RunAll(context.Background(), pts, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const sweeps = 4
	outs := make([][]PointResult, sweeps)
	caches := make([]*ResultCache, sweeps)
	var wg sync.WaitGroup
	errs := make([]error, sweeps)
	for i := 0; i < sweeps; i++ {
		caches[i] = openCache(t, dir)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = RunAll(context.Background(), pts, RunOptions{Cache: caches[i], Parallelism: 2})
		}(i)
	}
	wg.Wait()
	for i := 0; i < sweeps; i++ {
		if errs[i] != nil {
			t.Fatalf("sweep %d: %v", i, errs[i])
		}
		if s := caches[i].Stats(); s.Errors != 0 {
			t.Fatalf("sweep %d stats = %+v, want no cache errors", i, s)
		}
		for j := range pts {
			want := exportJSON(t, ref[j].Result)
			if got := exportJSON(t, outs[i][j].Result); !bytes.Equal(got, want) {
				t.Fatalf("sweep %d %s: Result differs from uncached reference", i, pts[j].Label)
			}
		}
	}

	// The directory is now fully warm: one more sweep must be all hits.
	warm := openCache(t, dir)
	if _, err := RunAll(context.Background(), pts, RunOptions{Cache: warm}); err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.Hits != uint64(len(pts)) || s.Misses != 0 {
		t.Fatalf("post-race warm stats = %+v, want all hits", s)
	}
}
