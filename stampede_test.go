package lsnuma

// Service-shaped concurrency tests for the result cache (PR 8): the
// single-flight layer must collapse N concurrent computations of one
// cold key into exactly one simulation, for both the persistent cache
// and the store-less dedup cache, and damaged cache files must still
// read as plain misses when many goroutines race the same entry. All of
// these run in CI under -race.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stampedeSettle gives follower goroutines time to queue behind a
// deliberately-blocked flight leader; generous relative to goroutine
// startup so the tests stay deterministic on loaded CI machines.
const stampedeSettle = 100 * time.Millisecond

// TestCacheStampedeSingleCompute pins the dedup contract at the do()
// layer with a countable compute: N goroutines race one cold key, the
// leader blocks until everyone has had time to arrive, and exactly one
// compute runs — every caller sharing its Result, all but one flagged
// Deduped.
func TestCacheStampedeSingleCompute(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) *ResultCache
	}{
		{"persistent", func(t *testing.T) *ResultCache { return openCache(t, t.TempDir()) }},
		{"dedup-only", func(t *testing.T) *ResultCache { return NewDedupCache() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := tc.open(t)
			pt := cachePoints()[0]
			const n = 16
			var (
				computes atomic.Int64
				started  sync.Once
				arrived  = make(chan struct{})
				release  = make(chan struct{})
			)
			compute := func() (*Result, *ReproBundle, error) {
				computes.Add(1)
				started.Do(func() { close(arrived) })
				<-release
				return &Result{Workload: pt.Workload, Protocol: string(pt.Config.Protocol)}, nil, nil
			}

			var (
				wg      sync.WaitGroup
				results [n]*Result
				deduped [n]bool
				errs    [n]error
			)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i], _, _, deduped[i], errs[i] = rc.do(context.Background(), pt, compute)
				}(i)
			}
			<-arrived
			time.Sleep(stampedeSettle)
			close(release)
			wg.Wait()

			if got := computes.Load(); got != 1 {
				t.Fatalf("computes = %d, want exactly 1", got)
			}
			ndeduped := 0
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("caller %d: %v", i, errs[i])
				}
				if results[i] == nil || results[i].Workload != pt.Workload {
					t.Fatalf("caller %d got %+v, want the shared Result", i, results[i])
				}
				if deduped[i] {
					ndeduped++
				}
			}
			if ndeduped != n-1 {
				t.Fatalf("deduped callers = %d, want %d", ndeduped, n-1)
			}
			if s := rc.Stats(); s.Dedups != n-1 || s.Errors != 0 {
				t.Fatalf("stats = %+v, want %d dedups and no errors", s, n-1)
			}
		})
	}
}

// TestCacheStampedeLeaderCancelled: when the leader's own context ends
// its computation (a client disconnect, or a request's lower point
// deadline, neither of which is part of the key), a follower whose own
// context is live does not inherit that error. The followers go through
// the flight again and all end with the Result of exactly one further
// compute; a follower whose own context is already done reports the
// error.
func TestCacheStampedeLeaderCancelled(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(cause.Error(), func(t *testing.T) {
			rc := NewDedupCache()
			pt := cachePoints()[0]
			const n = 8
			var (
				computes atomic.Int64
				arrived  = make(chan struct{})
				release  = make(chan struct{})
				rerun    = make(chan struct{})
				again    = make(chan struct{})
				once     sync.Once
			)
			leader := func() (*Result, *ReproBundle, error) {
				close(arrived)
				<-release
				return nil, &ReproBundle{}, fmt.Errorf("engine: run cancelled: %w", cause)
			}
			// compute is the followers' own: whichever of them leads the
			// second flight runs it and holds it open until the rest have
			// joined.
			compute := func() (*Result, *ReproBundle, error) {
				computes.Add(1)
				once.Do(func() { close(rerun) })
				<-again
				return &Result{Workload: pt.Workload, Protocol: string(pt.Config.Protocol)}, nil, nil
			}

			leaderErr := make(chan error, 1)
			go func() {
				_, _, _, _, err := rc.do(context.Background(), pt, leader)
				leaderErr <- err
			}()
			<-arrived

			var (
				wg      sync.WaitGroup
				results [n]*Result
				deduped [n]bool
				errs    [n]error
			)
			done, cancel := context.WithCancel(context.Background())
			cancel()
			for i := 0; i <= n; i++ {
				ctx := context.Background()
				if i == n {
					ctx = done // the one follower whose own context is over
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, _, _, dd, err := rc.do(ctx, pt, compute)
					if i == n {
						if !errors.Is(err, cause) || res != nil {
							t.Errorf("follower with a finished context = (%v, %v), want the leader's %v", res, err, cause)
						}
						return
					}
					results[i], deduped[i], errs[i] = res, dd, err
				}(i)
			}
			time.Sleep(stampedeSettle)
			close(release)
			if err := <-leaderErr; !errors.Is(err, cause) {
				t.Fatalf("leader = %v, want its own %v", err, cause)
			}
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-rerun:
				time.Sleep(stampedeSettle)
				close(again)
				<-finished
			case <-finished: // every follower gave up without a further compute
			}

			if got := computes.Load(); got != 1 {
				t.Fatalf("further computes = %d, want exactly 1", got)
			}
			led := 0
			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("follower %d inherited the leader's error: %v", i, errs[i])
				}
				if results[i] == nil || results[i].Workload != pt.Workload {
					t.Fatalf("follower %d got %+v, want the further compute's Result", i, results[i])
				}
				if !deduped[i] {
					led++
				}
			}
			if led != 1 {
				t.Fatalf("%d followers led the further compute, want 1", led)
			}
		})
	}
}

// TestRunAllStampede is the end-to-end version: N concurrent RunAll
// calls of one identical cold point against a shared cache must
// simulate at most once (one store miss, everything else a hit or a
// dedup) and hand every caller a byte-identical Result.
func TestRunAllStampede(t *testing.T) {
	rc := openCache(t, t.TempDir())
	pt := cachePoints()[0]

	ref, err := RunAll(context.Background(), []Point{pt}, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, ref[0].Result)

	const n = 16
	outs := make([][]PointResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = RunAll(context.Background(), []Point{pt}, RunOptions{Cache: rc})
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if got := exportJSON(t, outs[i][0].Result); !bytes.Equal(got, want) {
			t.Fatalf("run %d: Result differs from uncached reference", i)
		}
	}
	s := rc.Stats()
	if s.Errors != 0 {
		t.Fatalf("stats = %+v, want no cache errors", s)
	}
	// Exactly one simulation: one goroutine missed and computed; each of
	// the others either joined that flight (dedup) or arrived later and
	// hit the store. How the n-1 non-computers split between the two
	// depends on scheduling, but the total is pinned.
	if s.Misses != 1 {
		t.Fatalf("stats = %+v, want exactly 1 miss (one compute)", s)
	}
	if s.Hits+s.Dedups != n-1 {
		t.Fatalf("stats = %+v, want hits+dedups = %d", s, n-1)
	}
}

// TestCacheCorruptionRace reads one damaged entry from many goroutines
// at once (under -race in CI): every read must degrade to a miss —
// never an error, never a partial Result — and the re-simulated Results
// must match a fresh reference. The damaged file is also concurrently
// rewritten by the winning computation, so this exercises the
// read-while-replace path of the store too.
func TestCacheCorruptionRace(t *testing.T) {
	for _, damage := range []struct {
		name string
		do   func(path string) error
	}{
		{"truncated", func(path string) error { return os.Truncate(path, 7) }},
		{"garbage", func(path string) error { return os.WriteFile(path, []byte("{\"schema\":\"lsnuma-"), 0o644) }},
	} {
		t.Run(damage.name, func(t *testing.T) {
			dir := t.TempDir()
			pt := cachePoints()[0]
			key, err := pointKey(pt.Config, pt.Workload, pt.Scale)
			if err != nil {
				t.Fatal(err)
			}

			seed := openCache(t, dir)
			ref, err := RunAll(context.Background(), []Point{pt}, RunOptions{Cache: seed})
			if err != nil {
				t.Fatal(err)
			}
			want := exportJSON(t, ref[0].Result)
			if err := damage.do(seed.c.Path(key)); err != nil {
				t.Fatal(err)
			}

			rc := openCache(t, dir)
			const n = 8
			outs := make([][]PointResult, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					outs[i], errs[i] = RunAll(context.Background(), []Point{pt}, RunOptions{Cache: rc})
				}(i)
			}
			wg.Wait()

			for i := 0; i < n; i++ {
				if errs[i] != nil {
					t.Fatalf("run %d: damaged entry surfaced as an error: %v", i, errs[i])
				}
				if got := exportJSON(t, outs[i][0].Result); !bytes.Equal(got, want) {
					t.Fatalf("run %d: Result differs from reference after corruption recovery", i)
				}
			}
			if s := rc.Stats(); s.Errors != 0 {
				t.Fatalf("stats = %+v, want corruption to count as misses, not errors", s)
			}
		})
	}
}
