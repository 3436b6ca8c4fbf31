// Command lsnumad runs the simulator as a hardened sweep service: an
// HTTP daemon accepting point, sweep and comparison jobs (JSON in,
// NDJSON-streamed results out) from many concurrent clients, sharing
// one result cache — with single-flight stampede protection — across
// all of them.
//
// Robustness properties:
//
//   - Admission control: a bounded execution pool plus a bounded wait
//     queue; saturated arrivals are NACKed with 429 and a Retry-After
//     estimate instead of piling up (the service-layer analogue of the
//     simulator's bounded-MSHR NACK/retry discipline).
//   - Panic isolation: a panicking job produces a structured 500 with
//     its repro bundle; the daemon keeps serving.
//   - Graceful drain: SIGTERM/SIGINT stops admissions (503), lets
//     in-flight jobs finish, flushes, and exits; a second signal or the
//     drain deadline aborts remaining work via context cancellation.
//   - Crash durability (-state-dir): every accepted job is write-ahead
//     journaled, sweep progress is checkpointed through the result
//     cache, and a restart replays incomplete jobs — a kill -9 costs
//     only the points that were literally in flight.
//   - Per-tenant fairness: admission is deficit-round-robin across the
//     "tenant" request field, so one greedy client cannot starve the
//     queue; anonymous clients share a default bucket with the old FIFO
//     behavior.
//
// Usage:
//
//	lsnumad -addr :8347 -cache -jobs 4 -queue 16
//	lsnumad -addr :8347 -state-dir /var/lib/lsnumad   # durable jobs + cache
//	curl -s localhost:8347/api/v1/sweep -d '{"workload":"mp3d","sweep":"block","tenant":"team-a"}'
//	curl -s localhost:8347/api/v1/jobs/<id>
//	curl -s localhost:8347/metrics
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lsnuma/internal/cli"
	"lsnuma/internal/server"
	"lsnuma/internal/server/journal"
	"lsnuma/internal/version"
)

// quantumFlag is the -quantum value: a plain integer sets the default
// deficit-round-robin quantum, and repeatable tenant=N forms set
// per-tenant overrides (weighted DRR).
//
//	-quantum 8 -quantum gold=16 -quantum best-effort=4
type quantumFlag struct {
	def int
	per map[string]int
}

func (q *quantumFlag) String() string {
	parts := []string{}
	if q == nil {
		return ""
	}
	if q.def != 0 {
		parts = append(parts, strconv.Itoa(q.def))
	}
	names := make([]string, 0, len(q.per))
	for name := range q.per {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s=%d", name, q.per[name]))
	}
	return strings.Join(parts, ",")
}

func (q *quantumFlag) Set(s string) error {
	if name, val, ok := strings.Cut(s, "="); ok {
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 || name == "" {
			return fmt.Errorf("want tenant=N with N >= 1, got %q", s)
		}
		if q.per == nil {
			q.per = make(map[string]int)
		}
		q.per[name] = n
		return nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return fmt.Errorf("want a non-negative integer or tenant=N, got %q", s)
	}
	q.def = n
	return nil
}

func main() {
	flags := cli.New(flag.CommandLine, "lsnumad", []string{"j", "point-timeout"}, cli.Cache)
	var (
		addr         = flag.String("addr", "127.0.0.1:8347", "listen address")
		jobs         = flag.Int("jobs", 2, "concurrent job slots")
		queue        = flag.Int("queue", 8, "queue depth per tenant, the default bucket included (beyond it: 429 + Retry-After)")
		quantum      quantumFlag
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060); bind loopback unless you mean to expose it")
		stateDir     = flag.String("state-dir", "", "journal accepted jobs under this directory and replay incomplete ones on startup (implies a result cache at <state-dir>/cache unless -cache-dir or -no-cache overrides)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful drain deadline on SIGTERM/SIGINT")
	)
	flag.Var(&quantum, "quantum", "deficit-round-robin quantum in points (0 = default 8); repeatable tenant=N forms weight individual tenants (e.g. -quantum 8 -quantum gold=16)")
	flags.Parse(os.Args[1:])

	// -state-dir implies a persistent cache: resumption works by
	// re-reading completed points, so a journal without a cache would
	// replay jobs from scratch. Without a persistent cache the server
	// still deduplicates concurrent identical points.
	if *stateDir != "" && flags.CacheDir == "" && !flags.Cache {
		flags.CacheDir = filepath.Join(*stateDir, "cache")
	}
	cache, err := flags.OpenCache()
	if err != nil {
		flags.Fatal(err)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lsnumad: "+format+"\n", args...)
	}
	var jn *journal.Journal
	if *stateDir != "" {
		if jn, err = journal.Open(*stateDir, logf); err != nil {
			flags.Fatal(err)
		}
	}

	srv := server.New(server.Config{
		MaxJobs:      *jobs,
		QueueDepth:   *queue,
		Quantum:      quantum.def,
		TenantQuanta: quantum.per,
		Journal:      jn,
		Parallelism:  flags.Parallelism,
		PointTimeout: flags.PointTimeout,
		Cache:        cache,
		Logf:         logf,
	})
	if n := srv.Recover(); n > 0 {
		fmt.Fprintf(os.Stderr, "lsnumad: replaying %d incomplete job(s) from %s\n", n, *stateDir)
	}
	httpSrv := newHTTPServer(*addr, srv.Handler())

	// Install the drain handler before any listener serves: a SIGTERM
	// that follows the first healthy response must drain, not kill the
	// process with the default signal action.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	// Profiling endpoints live on their own listener so they are never
	// reachable through the job-serving address. A host-less address
	// (":6060") binds loopback only; exposing the profiler beyond the
	// machine takes an explicit host.
	if *pprofAddr != "" {
		pa := *pprofAddr
		if strings.HasPrefix(pa, ":") {
			pa = "127.0.0.1" + pa
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			fmt.Fprintf(os.Stderr, "lsnumad: pprof listening on %s\n", pa)
			if err := http.ListenAndServe(pa, pm); err != nil {
				fmt.Fprintf(os.Stderr, "lsnumad: pprof: %v\n", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "lsnumad: %s listening on %s (jobs=%d queue=%d)\n",
			version.String("lsnumad"), *addr, *jobs, *queue)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		flags.Fatal(err)
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "lsnumad: %v: draining (deadline %s; signal again to abort)\n", sig, *drainTimeout)
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "lsnumad: second signal: aborting in-flight jobs")
		cancel()
	}()

	code := 0
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "lsnumad: drain aborted: %v\n", err)
		srv.Close()
		code = 1
	}
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "lsnumad: shutdown: %v\n", err)
		code = 1
	}
	if cache != nil {
		s := cache.Stats()
		fmt.Fprintf(os.Stderr, "lsnumad: cache hits=%d misses=%d dedups=%d skips=%d errors=%d\n",
			s.Hits, s.Misses, s.Dedups, s.Skips, s.Errors)
	}
	fmt.Fprintln(os.Stderr, "lsnumad: drained, bye")
	os.Exit(code)
}

// readHeaderTimeout bounds how long a connection may take to send a
// request's headers, so clients that open connections and trickle bytes
// cannot hold them open forever. Request bodies and responses are not
// bounded: sweep streams legitimately run for minutes.
const readHeaderTimeout = 5 * time.Second

// newHTTPServer returns the job-serving HTTP server.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}
