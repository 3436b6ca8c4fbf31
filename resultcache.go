package lsnuma

import (
	"context"
	"encoding/json"
	"errors"
	"strconv"
	"sync/atomic"

	"lsnuma/internal/check"
	"lsnuma/internal/directory"
	"lsnuma/internal/engine"
	"lsnuma/internal/protocol"
	"lsnuma/internal/resultcache"
)

// DefaultCacheDir is the result cache location used when none is given
// (the -cache flag of lssweep/lsreport).
const DefaultCacheDir = ".lscache"

// resultSchema identifies the cache envelope layout. Bump it if the
// envelope itself (not the simulated semantics — that is
// engine.SchemaVersion) changes shape.
const resultSchema = "lsnuma-result-v1"

// cacheVersion qualifies the cache directory with the engine schema
// version, so entries written by an older engine generation are invisible
// (and thus invalid) after any semantics-changing upgrade.
func cacheVersion() string { return "e" + strconv.Itoa(engine.SchemaVersion) }

// CacheStats counts a ResultCache's traffic over its lifetime.
type CacheStats struct {
	// Hits is the number of points answered from the cache.
	Hits uint64
	// Misses is the number of points that had to simulate (absent,
	// truncated, corrupted or stale entries all count as misses).
	Misses uint64
	// Skips is the number of points not eligible for caching (fault
	// injection configured).
	Skips uint64
	// Errors counts failed cache operations (hashing or write failures);
	// the affected points still simulate normally.
	Errors uint64
	// Dedups is the number of points answered by joining another
	// in-flight computation of the same key (single-flight stampede
	// protection) instead of simulating or reading the store.
	Dedups uint64
}

// ResultCache memoizes point Results persistently (see RunOptions.Cache):
// a point whose canonical content hash — Config, workload, scale and
// engine schema version — matches a stored entry returns the stored
// Result byte-identically instead of simulating. Safe for concurrent use
// by any number of goroutines and processes sharing one cache directory.
//
// In front of the persistent store sits an in-process single-flight
// layer: concurrent computations of the same key collapse into one
// simulation whose outcome every caller shares (see CacheStats.Dedups
// and PointResult.Deduped). A cache with no backing directory —
// NewDedupCache — provides only that layer.
type ResultCache struct {
	c      *resultcache.Cache // nil for a dedup-only cache
	flight resultcache.Flight[pointOutcome]
	hits   atomic.Uint64
	misses atomic.Uint64
	skips  atomic.Uint64
	errs   atomic.Uint64
	dedups atomic.Uint64
}

// OpenResultCache opens (creating if needed) the persistent result cache
// rooted at dir; "" means DefaultCacheDir.
func OpenResultCache(dir string) (*ResultCache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	c, err := resultcache.Open(dir, cacheVersion())
	if err != nil {
		return nil, err
	}
	return &ResultCache{c: c}, nil
}

// NewDedupCache returns a ResultCache with no persistent store: every
// lookup misses and nothing is written to disk, but concurrent
// computations of identical points still collapse into one simulation
// through the single-flight layer. This is what a daemon uses when
// on-disk caching is disabled but stampede protection must stay on.
func NewDedupCache() *ResultCache { return &ResultCache{} }

// Stats returns the cache's hit/miss/skip/error/dedup counters.
func (rc *ResultCache) Stats() CacheStats {
	if rc == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:   rc.hits.Load(),
		Misses: rc.misses.Load(),
		Skips:  rc.skips.Load(),
		Errors: rc.errs.Load(),
		Dedups: rc.dedups.Load(),
	}
}

// pointKey returns the content-addressed cache key of a simulation point:
// a canonical hash of the configuration (field-order independent, and
// with the spec-string knobs spelled canonically, see canonicalSpecs),
// the workload name, the scale, and the engine schema version. Two
// points with equal keys produce byte-identical Results.
func pointKey(cfg Config, workloadName string, scale Scale) (string, error) {
	cj, err := resultcache.CanonicalJSON(canonicalSpecs(cfg))
	if err != nil {
		return "", err
	}
	return resultcache.Key(
		[]byte(resultSchema),
		[]byte(strconv.Itoa(engine.SchemaVersion)),
		[]byte(workloadName),
		[]byte(scale.String()),
		cj,
	), nil
}

// canonicalSpecs returns cfg with Check, Scheduler, DirFormat and Retry
// in the form their parsers print, so a configuration keys the same
// however a knob is spelled: "" and "off", "max:16" and its expansion. A
// spec that does not parse is left as spelled; running it fails.
func canonicalSpecs(cfg Config) Config {
	if l, err := check.ParseLevel(string(cfg.Check)); err == nil {
		cfg.Check = CheckLevel(l.String())
	}
	if s, err := engine.ParseSched(cfg.Scheduler); err == nil {
		cfg.Scheduler = s.String()
	}
	if f, err := directory.ParseFormat(cfg.DirFormat); err == nil {
		cfg.DirFormat = f.String()
	}
	if r, err := protocol.ParseRetry(cfg.Retry); err == nil {
		cfg.Retry = r.String()
	}
	return cfg
}

// cacheEnvelope is the stored form of one entry. Embedding the schema and
// key lets lookups reject foreign, stale or corrupted files as plain
// misses.
type cacheEnvelope struct {
	Schema string  `json:"schema"`
	Key    string  `json:"key"`
	Result *Result `json:"result"`
}

// cacheable reports whether a point's Result may be memoized.
// Fault-injected runs exist to exercise failure machinery, not to be
// remembered.
func cacheable(cfg Config) bool { return cfg.Faults == "" }

// get returns the stored Result under key, if any. Every failure mode
// of the stored entry — absent, unreadable, truncated, corrupted,
// written under a different key or schema — is a miss, never an error.
// A dedup-only cache (nil store) always misses.
func (rc *ResultCache) get(key string) (*Result, bool) {
	if rc.c == nil {
		rc.misses.Add(1)
		return nil, false
	}
	data, ok := rc.c.Get(key)
	if !ok {
		rc.misses.Add(1)
		return nil, false
	}
	var env cacheEnvelope
	if err := json.Unmarshal(data, &env); err != nil ||
		env.Schema != resultSchema || env.Key != key || env.Result == nil {
		rc.misses.Add(1)
		return nil, false
	}
	rc.hits.Add(1)
	return env.Result, true
}

// put memoizes a fresh Result under key. Failures only bump the error
// counter: the simulation already succeeded, and the cache is an
// optimization. A dedup-only cache drops the write.
func (rc *ResultCache) put(key string, res *Result) {
	if rc.c == nil {
		return
	}
	data, err := json.Marshal(cacheEnvelope{Schema: resultSchema, Key: key, Result: res})
	if err != nil {
		rc.errs.Add(1)
		return
	}
	if err := rc.c.Put(key, data); err != nil {
		rc.errs.Add(1)
	}
}

// pointOutcome is what one flight of a point's computation produced —
// the value shared between a single-flight leader and its followers.
type pointOutcome struct {
	res    *Result
	bundle *ReproBundle
	cached bool
	err    error
}

// do runs one point's computation through the cache stack: the
// persistent store first (a hit returns the stored Result), then the
// single-flight layer (exactly one of N concurrent identical
// computations runs; the rest share its outcome, flagged deduped), then
// compute itself, whose successful Result is written back to the store.
// A nil cache, an uncacheable point (fault injection) or an unhashable
// config computes directly with no dedup.
//
// ctx is the point's context, which compute runs under. Identical points
// need not carry identical deadlines: a request's point timeout and a
// client's disconnect are not part of the key. So a follower whose
// shared outcome failed with the leader's cancellation or deadline,
// while ctx is still live, goes through the flight again, leading a
// fresh computation or joining one. A follower waits for its leader
// without observing ctx, so it can wait past its own deadline for a
// leader that will succeed.
func (rc *ResultCache) do(ctx context.Context, pt Point, compute func() (*Result, *ReproBundle, error)) (res *Result, bundle *ReproBundle, cached, deduped bool, err error) {
	if rc == nil {
		res, bundle, err = compute()
		return
	}
	if !cacheable(pt.Config) {
		rc.skips.Add(1)
		res, bundle, err = compute()
		return
	}
	key, kerr := pointKey(pt.Config, pt.Workload, pt.Scale)
	if kerr != nil {
		rc.errs.Add(1)
		res, bundle, err = compute()
		return
	}
	for {
		o, deduped := rc.flight.Do(key, func() pointOutcome {
			if res, ok := rc.get(key); ok {
				return pointOutcome{res: res, cached: true}
			}
			res, bundle, err := compute()
			if err == nil {
				rc.put(key, res)
			}
			return pointOutcome{res: res, bundle: bundle, err: err}
		})
		if deduped && ctx.Err() == nil &&
			(errors.Is(o.err, context.Canceled) || errors.Is(o.err, context.DeadlineExceeded)) {
			continue // the leader's own context ended it, not ours
		}
		if deduped {
			rc.dedups.Add(1)
		}
		return o.res, o.bundle, o.cached, deduped, o.err
	}
}
